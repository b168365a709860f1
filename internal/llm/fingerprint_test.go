package llm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"
)

// referenceFingerprint is the defining encoder of FingerprintVersion 1,
// written the obvious way with fmt: every persisted trace, disk-cache record
// and chaos stream is addressed by its output, so the single-pass encoder
// must match it byte for byte.
func referenceFingerprint(version int, model string, req CompletionRequest) string {
	h := sha256.New()
	fmt.Fprintf(h, "llmsql-fp-v%d\x00%s\x00%d\x00%g\x00%d\x00",
		version, model, req.MaxTokens, req.Temperature, req.Seed)
	h.Write([]byte(req.Prompt))
	return hex.EncodeToString(h.Sum(nil))
}

// longPrompt is > 4 KiB, so the encoding outgrows fingerprintAt's stack
// buffer and takes the spill path.
var longPrompt = strings.Repeat("EXCLUDE: Österreich | 日本 | Côte d'Ivoire\n", 120)

// TestFingerprintGolden pins fingerprints as literals: a change to the
// encoding that also changed the reference above would still fail here.
func TestFingerprintGolden(t *testing.T) {
	cases := []struct {
		name  string
		model string
		req   CompletionRequest
		want  string
	}{
		{"temp 0", "synthlm-medium", CompletionRequest{Prompt: "TASK: KEYS", MaxTokens: 256},
			"028a0f06a81a656c704bc45c82677ac4f477523e2fdd94c19c3e1826920d9691"},
		{"temp 0.7", "synthlm-medium", CompletionRequest{Prompt: "TASK: KEYS", MaxTokens: 256, Temperature: 0.7, Seed: 3},
			"3b8336c4bca994e5123d683ce25b20bb3cebcb59b0c75355c91be98a81fb963f"},
		{"temp 1e-7 takes the exponent form", "m", CompletionRequest{Prompt: "p", Temperature: 1e-7},
			"90c114a02f4b317769e196f894fb8133413c08e06bea07bea6b152cd7d87d2ce"},
		{"temp 1e21 takes the exponent form", "m", CompletionRequest{Prompt: "p", Temperature: 1e21},
			"4b933d700967544ed107382ce8de157b2979e3f9d848a852aa603e32a8863a69"},
		{"temp -0 differs from 0", "m", CompletionRequest{Prompt: "p", Temperature: math.Copysign(0, -1)},
			"de73625dec0abdf8b3362d463c4573d50d94de035cee76005386b578e3ff6fb0"},
		{"temp 0 (pair of -0)", "m", CompletionRequest{Prompt: "p"},
			"94ac722f9672cbc6e58ec3e3e2285cf4c4df9b3e3c899c0c165135033548a4eb"},
		{"negative seed", "m", CompletionRequest{Prompt: "p", Temperature: 0.7, Seed: -42},
			"fa2fb8c0b44bcac673423facfa09355ceee31192d620ac1f5e8e957251f01ae6"},
		{"MinInt64 seed", "m", CompletionRequest{Prompt: "p", Seed: math.MinInt64},
			"813332eb96dea6190998288c541baca71daf3e1c51d91968a4af3061915b12eb"},
		{"empty prompt", "m", CompletionRequest{},
			"a53df456ff6db9a6da4dc39477ced63bf334786d5bbedcb2602ad660b0ef45aa"},
		{"non-ASCII prompt", "m", CompletionRequest{Prompt: "ENTITY: São Tomé and Príncipe — 日本", MaxTokens: 64},
			"fb69d493fff5256ee934a8b08f110e62f958a1ec7ad71dd08cc04f59e06d4d1c"},
		{"prompt > 4 KiB", "m", CompletionRequest{Prompt: longPrompt, MaxTokens: 1024, Temperature: 0.7, Seed: 7},
			"0406dc20461b1e3d76feaad1b64777856da4648b6445057ef5f4f2aec31fccb0"},
		{"model name with spaces", "my local model v2", CompletionRequest{Prompt: "p", MaxTokens: 8},
			"d76227f51d92ef428b0267d3f17a2073aebef82c96bf9e07ebdc82855340b6c7"},
	}
	if len(longPrompt) <= 4096 {
		t.Fatalf("longPrompt is only %d bytes", len(longPrompt))
	}
	for _, c := range cases {
		if got := Fingerprint(c.model, c.req); got != c.want {
			t.Errorf("%s: Fingerprint = %s, want %s", c.name, got, c.want)
		}
		if ref := referenceFingerprint(FingerprintVersion, c.model, c.req); ref != c.want {
			t.Errorf("%s: reference encoder = %s, want %s", c.name, ref, c.want)
		}
	}
}

func TestFingerprintAtMatchesReferenceAcrossVersions(t *testing.T) {
	req := CompletionRequest{Prompt: "p", MaxTokens: 3, Temperature: 0.25, Seed: 9}
	for _, v := range []int{0, 1, 2, 17, -1} {
		if got, want := fingerprintAt(v, "m", req), referenceFingerprint(v, "m", req); got != want {
			t.Errorf("version %d: %s, want %s", v, got, want)
		}
	}
}

func FuzzFingerprintMatchesReference(f *testing.F) {
	f.Add("synthlm-medium", "TASK: ATTR\nENTITY: France", 256, 0.7, int64(1001))
	f.Add("", "", 0, 0.0, int64(0))
	f.Add("a b", longPrompt, -1, math.Inf(1), int64(math.MinInt64))
	f.Add("m", "p", math.MaxInt, math.NaN(), int64(math.MaxInt64))
	f.Add("m", "nul\x00inside", 1, math.SmallestNonzeroFloat64, int64(-1))
	f.Fuzz(func(t *testing.T, model, prompt string, maxTokens int, temp float64, seed int64) {
		req := CompletionRequest{Prompt: prompt, MaxTokens: maxTokens, Temperature: temp, Seed: seed}
		if got, want := Fingerprint(model, req), referenceFingerprint(FingerprintVersion, model, req); got != want {
			t.Fatalf("Fingerprint(%q, %+v) = %s, reference %s", model, req, got, want)
		}
	})
}

// TestFingerprintAllocs holds the hot path to its one unavoidable allocation,
// the returned string, for any request whose encoding fits the stack buffer
// (every ATTR, KEYS and unpaged LIST prompt does).
func TestFingerprintAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(200, func() { fpSink = Fingerprint("synthlm-medium", attrRequest) }); n > 1 {
		t.Fatalf("Fingerprint allocated %v times, want <= 1", n)
	}
}

// attrRequest is shaped like the key-then-attr fan-out's requests.
var attrRequest = CompletionRequest{
	Prompt: "You are a precise data assistant. Answer strictly from your world knowledge.\n" +
		"TASK: ATTR\nTABLE: country -- a sovereign country of the world\nENTITY: France\n" +
		"COLUMN: capital -- the capital city\nRespond with only the value.",
	MaxTokens:   256,
	Temperature: 0.7,
	Seed:        1002,
}

var fpSink string

func BenchmarkFingerprint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fpSink = Fingerprint("synthlm-medium", attrRequest)
	}
}

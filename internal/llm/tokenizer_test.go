package llm

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasics(t *testing.T) {
	toks := Tokenize("The cat sat.")
	want := []string{"The", "cat", "sat", "."}
	if len(toks) != len(want) {
		t.Fatalf("tokens: %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("tok[%d] = %q, want %q", i, toks[i], want[i])
		}
	}
}

func TestTokenizeSubwordSplitting(t *testing.T) {
	toks := Tokenize("supersymmetrization")
	// 19 letters -> chunks of 4: 4+4+4+4+3 = 5 tokens.
	if len(toks) != 5 {
		t.Fatalf("subword count: %v", toks)
	}
	if strings.Join(toks, "") != "supersymmetrization" {
		t.Fatalf("subwords lose text: %v", toks)
	}
}

func TestTokenizePunctuation(t *testing.T) {
	toks := Tokenize("a|b || c")
	want := []string{"a", "|", "b", "|", "|", "c"}
	if len(toks) != len(want) {
		t.Fatalf("punct tokens: %v", toks)
	}
}

func TestCountTokensMatchesTokenize(t *testing.T) {
	f := func(s string) bool {
		return CountTokens(s) == len(Tokenize(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateTokens(t *testing.T) {
	text := "one two tree four five"
	if got := TruncateTokens(text, 3); got != "one two tree" {
		t.Fatalf("truncate: %q", got)
	}
	if got := TruncateTokens(text, 100); got != text {
		t.Fatalf("no-op truncate: %q", got)
	}
	if got := TruncateTokens(text, 0); got != "" {
		t.Fatalf("zero truncate: %q", got)
	}
	// Mid-word cut: "elephants" = 3 tokens (4+4+1).
	if got := TruncateTokens("elephants", 1); got != "elep" {
		t.Fatalf("mid-word: %q", got)
	}
}

// Property: truncation yields a prefix with exactly min(max, total) tokens.
func TestTruncateTokensProperty(t *testing.T) {
	f := func(s string, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		out := TruncateTokens(s, n)
		if !strings.HasPrefix(s, out) {
			return false
		}
		total := CountTokens(s)
		want := n
		if total < n {
			want = total
		}
		return CountTokens(out) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountTokensEmpty(t *testing.T) {
	if CountTokens("") != 0 || CountTokens("   \n\t ") != 0 {
		t.Fatal("whitespace must count zero tokens")
	}
}

// FuzzCountTokens: the one-pass count agrees with the tokenizer on every
// input, invalid UTF-8 included.
func FuzzCountTokens(f *testing.F) {
	for _, s := range []string{"", "The cat sat.", "supersymmetrization", "a|b || c", "abcd efghi", "größe 2024—est.\t\r\n", "\xff\xfeab"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := CountTokens(s), len(Tokenize(s)); got != want {
			t.Fatalf("CountTokens(%q) = %d, Tokenize has %d tokens", s, got, want)
		}
	})
}

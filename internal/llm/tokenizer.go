// Package llm provides the language-model substrate: the Model interface the
// query engine talks to, an exact deterministic tokenizer for cost
// accounting, a token-based cost/latency model, instrumentation and caching
// wrappers, and SynthLM — a deterministic simulated LLM backed by the
// synthetic world (internal/world) with an explicit noise model.
//
// SynthLM substitutes for the hosted GPT-style model of the paper: every
// failure mode the engine must survive (missing facts, hallucinated rows,
// wrong attribute values, malformed output, truncation) is generated on the
// same Complete() code path a real API would exercise, at controllable rates.
package llm

import (
	"strings"
	"unicode/utf8"
)

// tokenSpan is one token's byte range within the source text.
type tokenSpan struct{ start, end int }

// tokenSpans computes the token boundaries of text. Runs of letters, digits
// and underscores form words; words are split into 4-rune subword chunks
// (approximating a BPE vocabulary); every other non-space rune is a token of
// its own. Whitespace separates tokens and is attributed to no token.
func tokenSpans(text string) []tokenSpan {
	var spans []tokenSpan
	wordStart := -1
	wordRunes := 0
	chunkStart := -1
	flush := func(end int) {
		if wordStart < 0 {
			return
		}
		spans = append(spans, tokenSpan{chunkStart, end})
		wordStart, wordRunes, chunkStart = -1, 0, -1
	}
	for i, r := range text {
		switch {
		case isSpace(r):
			flush(i)
		case isWordRune(r):
			if wordStart < 0 {
				wordStart, chunkStart = i, i
			}
			if wordRunes == 4 {
				// Close the previous 4-rune chunk and start a new one.
				spans = append(spans, tokenSpan{chunkStart, i})
				chunkStart = i
				wordRunes = 0
			}
			wordRunes++
		default:
			flush(i)
			// A byte of invalid UTF-8 decodes as utf8.RuneError but spans
			// one byte, not RuneError's three.
			_, size := utf8.DecodeRuneInString(text[i:])
			spans = append(spans, tokenSpan{i, i + size})
		}
	}
	flush(len(text))
	return spans
}

func isSpace(r rune) bool { return r == ' ' || r == '\t' || r == '\n' || r == '\r' }

func isWordRune(r rune) bool {
	return r == '_' ||
		('a' <= r && r <= 'z') ||
		('A' <= r && r <= 'Z') ||
		('0' <= r && r <= '9')
}

// Tokenize splits text into subword tokens (see tokenSpans for the rules).
func Tokenize(text string) []string {
	spans := tokenSpans(text)
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = text[s.start:s.end]
	}
	return out
}

// CountTokens returns the number of tokens in text: len(Tokenize(text)),
// counted in one pass without materialising the spans.
func CountTokens(text string) int {
	n := 0
	wordRunes := 0 // runes into the current subword chunk, modulo 4
	for _, r := range text {
		switch {
		case isSpace(r):
			wordRunes = 0
		case isWordRune(r):
			if wordRunes == 0 {
				n++
			}
			wordRunes = (wordRunes + 1) % 4
		default:
			wordRunes = 0
			n++
		}
	}
	return n
}

// TruncateTokens returns the prefix of text containing at most maxTokens
// tokens, cutting mid-text exactly where the budget runs out (as a hosted
// API does — possibly mid-row, which the engine's parser must tolerate).
func TruncateTokens(text string, maxTokens int) string {
	if maxTokens <= 0 {
		return ""
	}
	spans := tokenSpans(text)
	if len(spans) <= maxTokens {
		return text
	}
	return text[:spans[maxTokens-1].end]
}

// joinTruncated builds token-budgeted multi-line output; maxTokens <= 0
// means unbounded. The second result reports truncation.
func joinTruncated(lines []string, maxTokens int) (string, bool) {
	text := strings.Join(lines, "\n")
	if maxTokens > 0 && CountTokens(text) > maxTokens {
		return TruncateTokens(text, maxTokens), true
	}
	return text, false
}

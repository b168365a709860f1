package serve

import (
	"encoding/json"
	"errors"
	"io"

	"llmsql/internal/core"
	"llmsql/internal/llm"
)

// The wire format is one JSON object per newline-terminated line, both ways.
// Requests are small and go through encoding/json. Responses carry the rows,
// so they go through the codec in encode.go and decode.go, which writes
// exactly encoding/json's bytes and reads them back without reflection.

// MaxRequestLine is the longest request line the server reads, in bytes
// without the newline.
const MaxRequestLine = 1 << 20

// Protocol rejection codes, returned in Response.Code beside the admission
// codes. After CodeTooLarge (a request line over MaxRequestLine) the
// connection closes; after CodeBadRequest (a line that is not one JSON
// object of the Request shape) the session reads the next line.
const (
	CodeTooLarge   = "too-large"
	CodeBadRequest = "bad-request"
)

// requestDecoder decodes one request per line with a json.Decoder kept
// across lines, so a request costs no decoder or read buffer of its own.
// Numbers stay json.Number, so integral arguments are exact.
type requestDecoder struct {
	dec  *json.Decoder
	rest []byte // what dec has not read of the current line
}

// Read feeds dec the current line and nothing after it.
func (rd *requestDecoder) Read(p []byte) (int, error) {
	if len(rd.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, rd.rest)
	rd.rest = rd.rest[n:]
	return n, nil
}

// decode decodes a line holding exactly one JSON value into req. A blank
// line is io.EOF.
func (rd *requestDecoder) decode(line []byte, req *Request) error {
	if rd.dec == nil {
		rd.dec = json.NewDecoder(rd)
		rd.dec.UseNumber()
	}
	rd.rest = line
	err := rd.dec.Decode(req)
	if _, next := rd.dec.Token(); err == nil && next != io.EOF {
		err = errors.New("serve: more than one JSON value on the line")
	}
	if err != nil {
		rd.dec = nil // it may hold the rest of this line, or a sticky error
	}
	return err
}

// MarshalJSON encodes r with the wire codec.
func (r Response) MarshalJSON() ([]byte, error) { return appendResponse(nil, &r) }

// UnmarshalJSON decodes r with the wire codec; row numbers stay json.Number.
func (r *Response) UnmarshalJSON(data []byte) error { return decodeResponse(data, r) }

// field is one member of a struct on the wire: its name and an accessor.
// Each table lists every field in declaration order, the order encoding/json
// writes them in (untagged fields under their Go names).
type field[T any] struct {
	key string
	ptr func(*T) any
}

// responseFields are what a response decodes into; appendResponse writes
// the same members, skipping the empty ones as their omitempty tags ask.
var responseFields = [...]field[Response]{
	{"id", func(r *Response) any { return &r.ID }},
	{"ok", func(r *Response) any { return &r.OK }},
	{"error", func(r *Response) any { return &r.Error }},
	{"code", func(r *Response) any { return &r.Code }},
	{"columns", func(r *Response) any { return &r.Columns }},
	{"types", func(r *Response) any { return &r.Types }},
	{"rows", func(r *Response) any { return &r.Rows }},
	{"usage", func(r *Response) any { return &r.Usage }},
	{"scans", func(r *Response) any { return &r.Scans }},
	{"views", func(r *Response) any { return &r.Views }},
	{"stmt", func(r *Response) any { return &r.Stmt }},
	{"session", func(r *Response) any { return &r.Session }},
	{"stats", func(r *Response) any { return &r.Stats }},
}

var usageFields = [...]field[llm.Usage]{
	{"Calls", func(u *llm.Usage) any { return &u.Calls }},
	{"PromptTokens", func(u *llm.Usage) any { return &u.PromptTokens }},
	{"CompletionTokens", func(u *llm.Usage) any { return &u.CompletionTokens }},
	{"CachedCalls", func(u *llm.Usage) any { return &u.CachedCalls }},
	{"SimLatency", func(u *llm.Usage) any { return &u.SimLatency }},
	{"SimWall", func(u *llm.Usage) any { return &u.SimWall }},
	{"SimDollars", func(u *llm.Usage) any { return &u.SimDollars }},
	{"Retries", func(u *llm.Usage) any { return &u.Retries }},
	{"HedgesLaunched", func(u *llm.Usage) any { return &u.HedgesLaunched }},
	{"HedgesWon", func(u *llm.Usage) any { return &u.HedgesWon }},
	{"WastedPromptTokens", func(u *llm.Usage) any { return &u.WastedPromptTokens }},
	{"WastedCompletionTokens", func(u *llm.Usage) any { return &u.WastedCompletionTokens }},
}

var scanFields = [...]field[core.ScanStats]{
	{"Table", func(s *core.ScanStats) any { return &s.Table }},
	{"Strategy", func(s *core.ScanStats) any { return &s.Strategy }},
	{"Auto", func(s *core.ScanStats) any { return &s.Auto }},
	{"Prompts", func(s *core.ScanStats) any { return &s.Prompts }},
	{"BatchedPrompts", func(s *core.ScanStats) any { return &s.BatchedPrompts }},
	{"BatchFallbacks", func(s *core.ScanStats) any { return &s.BatchFallbacks }},
	{"Rounds", func(s *core.ScanStats) any { return &s.Rounds }},
	{"RowsEmitted", func(s *core.ScanStats) any { return &s.RowsEmitted }},
	{"KeysGated", func(s *core.ScanStats) any { return &s.KeysGated }},
	{"KeysAttributed", func(s *core.ScanStats) any { return &s.KeysAttributed }},
	{"KeysBound", func(s *core.ScanStats) any { return &s.KeysBound }},
	{"Duplicates", func(s *core.ScanStats) any { return &s.Duplicates }},
	{"LowConfidenceDropped", func(s *core.ScanStats) any { return &s.LowConfidenceDropped }},
	{"CacheHits", func(s *core.ScanStats) any { return &s.CacheHits }},
	{"CacheMisses", func(s *core.ScanStats) any { return &s.CacheMisses }},
	{"DiskHits", func(s *core.ScanStats) any { return &s.DiskHits }},
	{"DiskMisses", func(s *core.ScanStats) any { return &s.DiskMisses }},
	{"DiskBytes", func(s *core.ScanStats) any { return &s.DiskBytes }},
	{"CoalescedHits", func(s *core.ScanStats) any { return &s.CoalescedHits }},
	{"KeysFailed", func(s *core.ScanStats) any { return &s.KeysFailed }},
	{"RetriesSpent", func(s *core.ScanStats) any { return &s.RetriesSpent }},
	{"HedgesLaunched", func(s *core.ScanStats) any { return &s.HedgesLaunched }},
	{"HedgesWon", func(s *core.ScanStats) any { return &s.HedgesWon }},
	{"Parse", func(s *core.ScanStats) any { return &s.Parse }},
	{"Materialized", func(s *core.ScanStats) any { return &s.Materialized }},
	{"ViewAge", func(s *core.ScanStats) any { return &s.ViewAge }},
}

var parseFields = [...]field[core.ParseStats]{
	{"LinesSeen", func(p *core.ParseStats) any { return &p.LinesSeen }},
	{"RowsParsed", func(p *core.ParseStats) any { return &p.RowsParsed }},
	{"RowsDropped", func(p *core.ParseStats) any { return &p.RowsDropped }},
	{"Repairs", func(p *core.ParseStats) any { return &p.Repairs }},
}

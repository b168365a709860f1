package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"

	"llmsql/internal/core"
	"llmsql/internal/exec"
	"llmsql/internal/llm"
	"llmsql/internal/rel"
)

// plainResponse is Response without its codec methods: encoding/json on it
// is the reference the codec must agree with.
type plainResponse Response

// referenceEncode is encoding/json's wire form of r, newline included.
func referenceEncode(t testing.TB, r *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode((*plainResponse)(r)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceDecode is encoding/json's decoding of a line, numbers as
// json.Number.
func referenceDecode(line []byte) (*Response, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var p plainResponse
	if err := dec.Decode(&p); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("data after the value")
	}
	r := Response(p)
	return &r, nil
}

// fillDistinct sets every number, bool and string reachable in v (through
// nested structs) to a non-zero value distinct from the others.
func fillDistinct(v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("s" + strings.Repeat("x", *next))
	default:
		panic("fillDistinct: unhandled kind " + v.Kind().String())
	}
}

// wireCases are finite responses covering every member, every field of the
// usage and scan blocks, and the string and number spellings encoding/json
// has opinions about.
func wireCases() map[string]*Response {
	n := 0
	var usage llm.Usage
	fillDistinct(reflect.ValueOf(&usage).Elem(), &n)
	scans := make([]core.ScanStats, 2)
	for i := range scans {
		fillDistinct(reflect.ValueOf(&scans[i]).Elem(), &n)
	}
	nasty := "<a href=\"x\">&amp;</a> \\ \x00\x01\x1f\x7f \b\f\n\r\t \xff\xfe bad \xe2\x28\xa1 é 世界 \u2028\u2029 \U0001F600"
	return map[string]*Response{
		"empty":  {},
		"ok":     {OK: true},
		"error":  {ID: 42, Error: nasty, Code: CodeBadRequest},
		"hello":  {ID: -7, OK: true, Session: 3, Stmt: 9},
		"blocks": {OK: true, Usage: &usage, Scans: scans},
		"rows": {
			OK:      true,
			Columns: []string{"b", "i", "f", nasty},
			Types:   []string{"BOOL", "INT", "FLOAT", "TEXT"},
			Rows: [][]any{
				{true, int64(math.MaxInt64), 1e21, nasty},
				{false, int64(math.MinInt64), 1e-7, ""},
				{nil, int64(0), math.Copysign(0, -1), "x"},
				{nil, int64(-1), 123456789.125, "y"},
				{true, int64(1), 1e20, "z"},
				{false, int64(2), 9.999999e-7, "w"},
				{true, int64(3), -1.5e300, "v"},
				{false, int64(4), 5e-324, "u"},
				{true, int64(5), 0.1, "t"},
				nil,
				{},
				{json.Number("12.5e3"), 7, float32(0.5)},
			},
		},
		"views": {OK: true, Views: []core.ViewInfo{{Name: "v", Query: "SELECT 1 < 2", Rows: 3, Stale: true}}},
		"stats": {OK: true, Stats: &Stats{Sessions: 1, Errors: 2, Faults: FaultStats{KeysFailed: 3}}},
	}
}

// TestWireEncodeMatchesEncodingJSON: for any finite response, the codec
// writes exactly encoding/json's bytes. The "blocks" case sets every Usage,
// ScanStats and ParseStats field, so a field added to those types without a
// codec table entry fails here.
func TestWireEncodeMatchesEncodingJSON(t *testing.T) {
	for name, r := range wireCases() {
		got, err := appendResponse(nil, r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = append(got, '\n')
		if want := referenceEncode(t, r); !bytes.Equal(got, want) {
			t.Errorf("%s: codec bytes differ from encoding/json\n got %s\nwant %s", name, got, want)
		}
		marshaled, err := json.Marshal(r)
		if err != nil || !bytes.Equal(append(marshaled, '\n'), got) {
			t.Errorf("%s: json.Marshal does not go through the codec: %s (%v)", name, marshaled, err)
		}
	}
}

// TestWireDecodeMatchesEncodingJSON: decoding the codec's bytes gives what
// encoding/json with UseNumber gives.
func TestWireDecodeMatchesEncodingJSON(t *testing.T) {
	for name, r := range wireCases() {
		line, err := appendResponse(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceDecode(line)
		if err != nil {
			t.Fatalf("%s: encoding/json rejects the codec's bytes: %v", name, err)
		}
		var got Response
		if err := decodeResponse(line, &got); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, line)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("%s: decoded\n %#v\nencoding/json\n %#v", name, got, *want)
		}
	}
}

// TestWireDecodeEscapes covers the string escapes the encoder never writes
// but encoding/json accepts, and member names matched case-insensitively.
func TestWireDecodeEscapes(t *testing.T) {
	for _, line := range []string{
		`{"error":"\/\"\\\b\f\n\r\té😀\ud800A\udc00x"}`,
		`{"OK":true,"Rows":[["a\u0000b",-0.5e+10,1E2]],"USAGE":{"calls":3},"scans":[{"parse":{"repairs":2}}]}`,
		" { \"error\" : \"é\xffz\" , \"unknown\" : [ { \"deep\" : [ 1 , \"2\" , null , true ] } ] } ",
		`null`,
	} {
		want, err := referenceDecode([]byte(line))
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		var got Response
		if err := decodeResponse([]byte(line), &got); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("%s: decoded\n %#v\nencoding/json\n %#v", line, got, *want)
		}
	}
}

// wideResult is a 250-row, 4-column result with NULLs in every column.
func wideResult() *exec.Result {
	res := &exec.Result{Schema: rel.NewSchema(
		rel.Column{Name: "id", Type: rel.TypeInt},
		rel.Column{Name: "name", Type: rel.TypeText},
		rel.Column{Name: "score", Type: rel.TypeFloat},
		rel.Column{Name: "active", Type: rel.TypeBool},
	)}
	for i := 0; i < 250; i++ {
		row := rel.Row{rel.Int(int64(i) * 7919), rel.Text("entité " + strings.Repeat("n", i%17)), rel.Float(float64(i) / 3), rel.Bool(i%2 == 0)}
		if i%50 == 0 {
			row[i%4] = rel.NullOf(row[i%4].Type())
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// wideResponse is what the server sends for wideResult: one scan and a
// usage block.
func wideResponse() *Response {
	return &Response{
		ID: 12, OK: true, result: wideResult(),
		Usage: &llm.Usage{Calls: 3, PromptTokens: 1200, CompletionTokens: 800, SimLatency: 1500000, SimDollars: 0.0042},
		Scans: []core.ScanStats{{Table: "movie", Strategy: core.StrategyKeyThenAttr, Prompts: 3, RowsEmitted: 250, Parse: core.ParseStats{LinesSeen: 250, RowsParsed: 250}}},
	}
}

// TestWireResultMatchesBoxedRows: the server's unboxed path writes the
// bytes a Response holding EncodeRows' output encodes to.
func TestWireResultMatchesBoxedRows(t *testing.T) {
	r := wideResponse()
	boxed := *r
	boxed.result = nil
	boxed.Columns, boxed.Types, boxed.Rows = EncodeRows(r.result)
	got, err := appendResponse(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceEncode(t, &boxed); !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("unboxed result encodes differently:\n got %s\nwant %s", got, want)
	}
}

// TestWireEncodeAllocs: encoding into a warm session buffer allocates
// nothing.
func TestWireEncodeAllocs(t *testing.T) {
	r := wideResponse()
	buf, _ := appendResponse(nil, r)
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = appendResponse(buf[:0], r)
	})
	if allocs != 0 {
		t.Fatalf("encoding into a warm buffer allocates %.1f times", allocs)
	}
}

func BenchmarkWireEncodeWide(b *testing.B) {
	r := wideResponse()
	buf, _ := appendResponse(nil, r)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = appendResponse(buf[:0], r)
	}
}

func BenchmarkWireDecodeWide(b *testing.B) {
	line, _ := appendResponse(nil, wideResponse())
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r Response
		if err := decodeResponse(line, &r); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzWireResponse: arbitrary bytes never panic the decoder, and whatever it
// accepts encoding/json accepts too.
func FuzzWireResponse(f *testing.F) {
	for _, r := range wireCases() {
		line, _ := appendResponse(nil, r)
		f.Add(line)
	}
	f.Add([]byte(`{"ROWS":[[1,"\ud800"]],"usage":{"simdollars":1e400}}`))
	f.Add([]byte(`{"id":1.5}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Response
		if err := decodeResponse(data, &got); err != nil {
			return
		}
		if _, err := referenceDecode(data); err != nil {
			t.Fatalf("codec accepts what encoding/json rejects (%v): %q", err, data)
		}
	})
}

// FuzzDecodeRequest: arbitrary input, framed into lines as the server frames
// it, never panics; blank lines are skipped, and every other line decodes as
// a fresh encoding/json decoder (UseNumber) decodes it, exactly one value or
// an error, so the decoder kept across lines carries nothing over.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte("{\"op\":\"ping\"}\n\n  \n{\"id\":3,\"op\":\"query\",\"sql\":\"SELECT 1\",\"args\":[1,2.5,\"x\",null,true]}\n"))
	f.Add([]byte("{\"op\":\"set\",\"named\":{\"a\":9007199254740993}} {\"op\":\"ping\"}\n{\"op\":\n\"ping\"}\n[1]\n5\n"))
	f.Add([]byte(strings.Repeat("x", 300) + "\n{\"op\":\"ping\"}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := bufio.NewScanner(bytes.NewReader(data))
		lines.Buffer(nil, 256)
		var rd requestDecoder
		for lines.Scan() {
			line := lines.Bytes()
			var got, want Request
			gotErr := rd.decode(line, &got)
			if blank := len(bytes.Trim(line, " \t\r\n")) == 0; blank != (gotErr == io.EOF) {
				t.Fatalf("line %q: blank %v, decoder says %v", line, blank, gotErr)
			}
			if gotErr == io.EOF {
				continue
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.UseNumber()
			wantErr := dec.Decode(&want)
			if wantErr == nil && !json.Valid(line) {
				wantErr = errors.New("not exactly one JSON value")
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("line %q: decoder says %v, encoding/json says %v", line, gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("line %q: decoded %+v, encoding/json %+v", line, got, want)
			}
		}
	})
}

// rawConn is a test client speaking the protocol by hand, for input
// Client never sends.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	conn, err := net.Dial(SplitAddr(addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, r: bufio.NewReader(conn)}
}

// roundTrip sends raw bytes and reads one response line.
func (c *rawConn) roundTrip(send string) (*Response, error) {
	c.t.Helper()
	if _, err := io.WriteString(c.conn, send); err != nil {
		c.t.Fatal(err)
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	var resp Response
	if err := decodeResponse(line, &resp); err != nil {
		c.t.Fatal(err)
	}
	return &resp, nil
}

// TestServeRequestLineBound: a request line of MaxRequestLine−1 or
// MaxRequestLine bytes is served; a malformed line gets bad-request and the
// session carries on; one byte over the limit gets too-large and the
// connection closes. Blank lines are skipped, and every rejection counts in
// Stats.Errors.
func TestServeRequestLineBound(t *testing.T) {
	g, err := core.NewEngineGroup(llm.NewSynthLM(testWorld(), llm.ProfileMedium, 7), servingConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	addr, srv := startServer(t, g, Config{})
	c := dialRaw(t, addr)

	ping := func(size int) string {
		req := `{"id":5,"op":"ping"}`
		return req + strings.Repeat(" ", size-len(req)) + "\n"
	}
	for _, size := range []int{MaxRequestLine - 1, MaxRequestLine} {
		resp, err := c.roundTrip("\n \r\n" + ping(size))
		if err != nil || !resp.OK || resp.ID != 5 {
			t.Fatalf("%d-byte line: %+v err=%v", size, resp, err)
		}
	}
	for _, bad := range []string{`{"op":`, `{"op":"ping"} {"op":"ping"}`, `[1]`, `{"op":5}`, "\x00"} {
		resp, err := c.roundTrip(bad + "\n")
		if err != nil || resp.OK || resp.Code != CodeBadRequest {
			t.Fatalf("malformed %q: %+v err=%v", bad, resp, err)
		}
	}
	if resp, err := c.roundTrip(ping(100)); err != nil || !resp.OK {
		t.Fatalf("session did not survive malformed lines: %+v err=%v", resp, err)
	}
	resp, err := c.roundTrip(ping(MaxRequestLine + 1))
	if err != nil || resp.OK || resp.Code != CodeTooLarge {
		t.Fatalf("oversize line: %+v err=%v", resp, err)
	}
	if _, err := c.r.ReadByte(); err == nil {
		t.Fatal("connection still open after too-large")
	}
	if got := srv.Stats().Errors; got != 6 {
		t.Fatalf("Stats.Errors = %d, want 6 rejections", got)
	}
}

// TestServeNonFiniteFloats: FLOAT results of ±Inf and NaN reach the client
// as "+Inf", "-Inf" and "NaN" and decode back, and the session carries on.
func TestServeNonFiniteFloats(t *testing.T) {
	g, err := core.NewEngineGroup(llm.NewSynthLM(testWorld(), llm.ProfileMedium, 7), servingConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	addr, srv := startServer(t, g, Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, s := range []string{"CREATE TABLE f (id INT PRIMARY KEY, x FLOAT)", "INSERT INTO f VALUES (1, 1e308)"} {
		if resp, err := c.Exec(s); err != nil || !resp.OK {
			t.Fatalf("%s: %+v err=%v", s, resp, err)
		}
	}
	resp, err := c.Query("SELECT x * 10.0, x * -10.0, x * 10.0 - x * 10.0 FROM f", nil, nil)
	if err != nil || !resp.OK {
		t.Fatalf("query: %+v err=%v", resp, err)
	}
	if want := []any{"+Inf", "-Inf", "NaN"}; !reflect.DeepEqual(resp.Rows, [][]any{want}) {
		t.Fatalf("wire rows %v, want %v", resp.Rows, want)
	}
	res, err := DecodeRows(resp.Columns, resp.Types, resp.Rows)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if !math.IsInf(row[0].AsFloat(), 1) || !math.IsInf(row[1].AsFloat(), -1) || !math.IsNaN(row[2].AsFloat()) {
		t.Fatalf("decoded %v", row)
	}
	if resp, err := c.Do(Request{Op: "ping"}); err != nil || !resp.OK {
		t.Fatalf("session died after non-finite floats: %+v err=%v", resp, err)
	}
	if got := srv.Stats().Errors; got != 0 {
		t.Fatalf("Stats.Errors = %d, want 0", got)
	}
}

// TestClientResponseOutlivesNextDo: a Response shares nothing with the
// client's line buffer, so the next Do leaves it unchanged.
func TestClientResponseOutlivesNextDo(t *testing.T) {
	g, err := core.NewEngineGroup(llm.NewSynthLM(testWorld(), llm.ProfileMedium, 7), servingConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	addr, _ := startServer(t, g, Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Exec("CREATE TABLE note (id INT PRIMARY KEY, body TEXT)"); err != nil || !resp.OK {
		t.Fatalf("create: %+v err=%v", resp, err)
	}
	for _, s := range []string{"INSERT INTO note VALUES (1, 'first body')", "INSERT INTO note VALUES (2, 'zzzzz zzzz')"} {
		if resp, err := c.Exec(s); err != nil || !resp.OK {
			t.Fatalf("%s: %+v err=%v", s, resp, err)
		}
	}
	first, err := c.Query("SELECT id, body FROM note WHERE id = 1", nil, nil)
	if err != nil || !first.OK {
		t.Fatalf("first: %+v err=%v", first, err)
	}
	before, _ := json.Marshal(first)
	if second, err := c.Query("SELECT id, body FROM note WHERE id = 2", nil, nil); err != nil || !second.OK {
		t.Fatalf("second: %+v err=%v", second, err)
	}
	if after, _ := json.Marshal(first); !bytes.Equal(before, after) {
		t.Fatalf("first response changed under the next Do:\n%s\n%s", before, after)
	}
}

package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"llmsql/internal/core"
	"llmsql/internal/sql"
)

// session is one connection's server-side state: its own engine (billing,
// caches, plan cache) over the group's shared coalescing stack, its
// prepared statements, and its named-parameter defaults.
type session struct {
	server *Server
	conn   net.Conn
	id     int64
	eng    *core.Engine
	tenant string

	stmts    map[int64]*core.Stmt
	stmtSQL  map[int64]string // original text, for named-default resolution
	nextStmt int64
	defaults map[string]any // session named-parameter state (set op)

	requests requestDecoder
	out      []byte // the response line being written, reused

	// mu guards the drain handshake: inFlight marks a request being
	// handled; closing asks the session to exit after the response is
	// written.
	mu       sync.Mutex
	inFlight bool
	closing  bool
}

func newSession(s *Server, conn net.Conn, id int64) *session {
	return &session{
		server:   s,
		conn:     conn,
		id:       id,
		eng:      s.cfg.Group.Session(),
		stmts:    make(map[int64]*core.Stmt),
		stmtSQL:  make(map[int64]string),
		defaults: make(map[string]any),
	}
}

// run is the session loop: read one request line, handle it, write one
// response line. It returns (closing the connection and retiring the
// session's engine) on client EOF, an over-long line, idle timeout, a failed
// write or drain.
func (s *session) run() {
	defer func() {
		s.conn.Close()
		s.server.cfg.Group.CloseSession(s.eng)
		s.server.endSession(s)
	}()
	lines := bufio.NewScanner(s.conn)
	lines.Buffer(nil, MaxRequestLine+1) // +1 for the newline
	for {
		if s.server.cfg.IdleTimeout > 0 {
			s.conn.SetReadDeadline(time.Now().Add(s.server.cfg.IdleTimeout))
		}
		var req Request
		var resp *Response
		if !lines.Scan() {
			err := lines.Err()
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.server.logf("session %d: idle timeout", s.id)
			}
			if !errors.Is(err, bufio.ErrTooLong) {
				return
			}
			resp = &Response{Error: fmt.Sprintf("serve: request line over %d bytes", MaxRequestLine), Code: CodeTooLarge}
		} else if err := s.requests.decode(lines.Bytes(), &req); err == io.EOF {
			continue // a blank line
		} else if err != nil {
			resp = &Response{Error: err.Error(), Code: CodeBadRequest}
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			// A request raced the drain deadline: answer it with the
			// machine-readable draining code before the connection closes,
			// so clients can distinguish shutdown from a dropped link and
			// reconnect instead of retrying here.
			resp := errResponse(&RejectError{Code: CodeDraining, Msg: "server shutting down"})
			resp.ID = req.ID
			s.write(req.Op, resp)
			return
		}
		s.inFlight = true
		s.mu.Unlock()

		if resp == nil {
			resp = s.handle(&req)
		}
		resp.ID = req.ID
		werr := s.write(req.Op, resp)

		s.mu.Lock()
		s.inFlight = false
		closing := s.closing
		s.mu.Unlock()
		if werr != nil || closing || resp.Code == CodeTooLarge {
			return
		}
	}
}

// write encodes resp into the session's reused buffer and sends it as one
// line under the write deadline, so a stalled client cannot wedge the drain
// handshake. A response the codec cannot encode is replaced by an error
// response, so the client is always answered. Failed requests are counted
// and logged, and so is a failed write.
func (s *session) write(op string, resp *Response) error {
	out, err := appendResponse(s.out[:0], resp)
	if err != nil {
		resp = &Response{ID: resp.ID, Error: "serve: encode response: " + err.Error(), Code: "error"}
		out, _ = appendResponse(out[:0], resp)
	}
	if !resp.OK {
		if op == "" {
			op = "request"
		}
		s.server.countError()
		s.server.logf("session %d: %s failed: %s", s.id, op, resp.Error)
	}
	s.out = append(out, '\n')
	if wt := s.server.cfg.WriteTimeout; wt > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(wt))
	}
	_, err = s.conn.Write(s.out)
	s.conn.SetWriteDeadline(time.Time{})
	if err != nil {
		s.server.logf("session %d: write response: %v", s.id, err)
	}
	return err
}

// drain asks the session to exit: immediately when idle (the blocked read
// is unblocked by closing the connection), or right after the in-flight
// request's response otherwise.
func (s *session) drain() {
	s.mu.Lock()
	s.closing = true
	idle := !s.inFlight
	s.mu.Unlock()
	if idle {
		s.conn.Close()
	}
}

// handle dispatches one request. It never writes to the connection.
func (s *session) handle(req *Request) *Response {
	switch req.Op {
	case "hello":
		s.tenant = req.Tenant
		return &Response{OK: true, Session: s.id}
	case "ping":
		return &Response{OK: true}
	case "stats":
		st := s.server.Stats()
		return &Response{OK: true, Stats: &st}
	case "set":
		for name, raw := range req.Named {
			if raw == nil {
				delete(s.defaults, name)
				continue
			}
			v, err := convertArg(raw)
			if err != nil {
				return errResponse(err)
			}
			s.defaults[strings.ToLower(name)] = v
		}
		return &Response{OK: true}
	case "prepare":
		stmt, err := s.eng.Prepare(req.SQL)
		if err != nil {
			return errResponse(err)
		}
		s.nextStmt++
		s.stmts[s.nextStmt] = stmt
		s.stmtSQL[s.nextStmt] = req.SQL
		return &Response{OK: true, Stmt: s.nextStmt}
	case "close_stmt":
		if _, ok := s.stmts[req.Stmt]; !ok {
			return errResponse(fmt.Errorf("serve: unknown statement %d", req.Stmt))
		}
		delete(s.stmts, req.Stmt)
		delete(s.stmtSQL, req.Stmt)
		return &Response{OK: true}
	case "views":
		views := s.eng.Views()
		return &Response{OK: true, Views: views}
	case "exec":
		return s.runExec(req)
	case "query":
		return s.runQuery(req, req.SQL, nil)
	case "stmt":
		stmt, ok := s.stmts[req.Stmt]
		if !ok {
			return errResponse(fmt.Errorf("serve: unknown statement %d", req.Stmt))
		}
		return s.runQuery(req, s.stmtSQL[req.Stmt], stmt)
	default:
		return errResponse(fmt.Errorf("serve: unknown op %q", req.Op))
	}
}

// runExec runs a DDL/DML statement — local writes and the materialized-view
// lifecycle — under an admission slot. Model spend the statement incurred
// (a view build, the cold fingerprints of a refresh) is charged to the
// tenant's token budget; cached completions charge nothing, so an all-warm
// REFRESH is budget-free.
func (s *session) runExec(req *Request) *Response {
	release, err := s.server.adm.Acquire(s.tenant)
	if err != nil {
		return errResponse(err)
	}
	s.server.countQuery()
	before := s.eng.TotalUsage()
	if err := s.eng.Exec(req.SQL); err != nil {
		release(s.eng.TotalUsage().Sub(before).TotalTokens())
		return errResponse(err)
	}
	usage := s.eng.TotalUsage().Sub(before)
	release(usage.TotalTokens())
	return &Response{OK: true, Usage: &usage}
}

// runQuery executes SQL (or a prepared statement when stmt is non-nil)
// under an admission slot and encodes the result.
func (s *session) runQuery(req *Request, sqlText string, stmt *core.Stmt) *Response {
	args, err := s.bindArgs(req, sqlText)
	if err != nil {
		return errResponse(err)
	}
	release, err := s.server.adm.Acquire(s.tenant)
	if err != nil {
		return errResponse(err)
	}
	s.server.countQuery()
	var qr *core.QueryResult
	if stmt != nil {
		qr, err = stmt.Query(args...)
	} else {
		qr, err = s.eng.Query(sqlText, args...)
	}
	if err != nil {
		release(0)
		return errResponse(err)
	}
	release(qr.Usage.TotalTokens())
	s.server.countScans(qr.Scans)
	return &Response{OK: true, result: qr.Result, Usage: &qr.Usage, Scans: qr.Scans}
}

// bindArgs turns a request's bindings into engine arguments. Positional
// args pass through. Named args are overlaid on the session's defaults —
// but only names the statement actually references are taken from the
// defaults, so stored defaults never trip the engine's exact-binding
// validation on statements that don't use them.
func (s *session) bindArgs(req *Request, sqlText string) ([]any, error) {
	if len(req.Args) > 0 {
		return convertArgs(req.Args)
	}
	named := make(core.NamedArgs)
	for name, raw := range req.Named {
		v, err := convertArg(raw)
		if err != nil {
			return nil, err
		}
		named[strings.ToLower(name)] = v
	}
	if len(s.defaults) > 0 {
		for _, name := range namedParams(sqlText) {
			if _, bound := named[name]; bound {
				continue
			}
			if v, ok := s.defaults[name]; ok {
				named[name] = v
			}
		}
	}
	if len(named) == 0 {
		return nil, nil
	}
	return []any{named}, nil
}

// namedParams lists the lower-cased :name parameters a statement
// references, or nil when it doesn't parse (the engine will report the
// parse error with position info; this helper stays quiet).
func namedParams(sqlText string) []string {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil
	}
	var names []string
	seen := make(map[string]bool)
	for _, p := range sql.CollectParams(stmt) {
		if p.Name == "" || seen[p.Name] {
			continue
		}
		seen[p.Name] = true
		names = append(names, strings.ToLower(p.Name))
	}
	return names
}

func errResponse(err error) *Response {
	code := "error"
	var rej *RejectError
	if errors.As(err, &rej) {
		code = rej.Code
	}
	return &Response{OK: false, Error: err.Error(), Code: code}
}

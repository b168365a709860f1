package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"time"

	"llmsql/internal/core"
)

// Client is a minimal synchronous client for the line/JSON protocol: one
// request out, one response in. It is not safe for concurrent use — open
// one Client per goroutine (sessions are per-connection anyway).
type Client struct {
	conn   net.Conn
	enc    *json.Encoder
	lines  *bufio.Scanner
	nextID int64
}

// Dial connects to a server address. Addresses with a slash (or the
// explicit "unix:" prefix) are unix socket paths; everything else is TCP
// host:port.
func Dial(addr string) (*Client, error) {
	network, target := SplitAddr(addr)
	conn, err := net.DialTimeout(network, target, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s %s: %w", network, target, err)
	}
	lines := bufio.NewScanner(conn)
	lines.Buffer(make([]byte, 64<<10), math.MaxInt) // responses have no size limit
	return &Client{conn: conn, enc: json.NewEncoder(conn), lines: lines}, nil
}

// SplitAddr classifies a server address into a dial network and target:
// "unix:" prefixes and paths containing a slash are unix sockets, the rest
// TCP.
func SplitAddr(addr string) (network, target string) {
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", rest
	}
	if strings.Contains(addr, "/") {
		return "unix", addr
	}
	return "tcp", addr
}

// Close closes the connection (the server retires the session).
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one request and waits for its response. A response with
// ok=false is returned as-is, not as an error — callers inspect
// Response.OK/Error/Code. The Response shares no memory with the client's
// buffers, so it stays valid across later calls.
func (c *Client) Do(req Request) (*Response, error) {
	c.nextID++
	req.ID = c.nextID
	if err := c.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("serve: send: %w", err)
	}
	if !c.lines.Scan() {
		err := c.lines.Err()
		if err == nil {
			err = io.EOF
		}
		return nil, fmt.Errorf("serve: receive: %w", err)
	}
	resp := new(Response)
	if err := decodeResponse(c.lines.Bytes(), resp); err != nil {
		return nil, fmt.Errorf("serve: receive: %w", err)
	}
	return resp, nil
}

// Hello announces the session's tenant.
func (c *Client) Hello(tenant string) (*Response, error) {
	return c.Do(Request{Op: "hello", Tenant: tenant})
}

// Query runs one SQL statement. args binds positional parameters, named
// binds :name parameters; pass nil for whichever the statement doesn't use.
func (c *Client) Query(sqlText string, args []any, named map[string]any) (*Response, error) {
	return c.Do(Request{Op: "query", SQL: sqlText, Args: args, Named: named})
}

// Exec runs a DDL/DML statement (local writes, CREATE/REFRESH/DROP
// MATERIALIZED VIEW).
func (c *Client) Exec(sqlText string) (*Response, error) {
	return c.Do(Request{Op: "exec", SQL: sqlText})
}

// Views lists the session's materialized views and their freshness state.
func (c *Client) Views() ([]core.ViewInfo, error) {
	resp, err := c.Do(Request{Op: "views"})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("serve: views: %s", resp.Error)
	}
	return resp.Views, nil
}

// Stats fetches the server-wide counters.
func (c *Client) Stats() (*Stats, error) {
	resp, err := c.Do(Request{Op: "stats"})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("serve: stats: %s", resp.Error)
	}
	return resp.Stats, nil
}

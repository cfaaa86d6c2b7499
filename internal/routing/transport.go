package routing

import (
	"context"
	"io"
	"net"
	"net/http"
	"time"
)

// OwnedClient returns the HTTP client a plane (a router, a frontend) issues
// its calls with, plus the transport it built when it had to build one. A
// client that brings its own Transport is used as is and no transport is
// returned: its owner manages it. Otherwise the plane owns a new keep-alive
// transport — a nil client becomes a bare client on it, and a client without
// a Transport is copied onto it, keeping its Timeout — and the caller closes
// that transport's idle connections when it shuts down.
//
// idlePerHost is how many idle connections the transport keeps per host. Size
// it to the most calls the plane can have in flight to one host: a call that
// finishes while the idle pool is full closes its connection, and the next
// call pays a dial (http.DefaultTransport keeps 2). dialed, when non-nil, is
// told the host:port of every connection the transport opens, so churn shows
// as a counter rather than as latency.
func OwnedClient(c *http.Client, idlePerHost int, dialed func(addr string)) (*http.Client, *http.Transport) {
	if c != nil && c.Transport != nil {
		return c, nil
	}
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // the per-host bound over the plane's fixed host set bounds the total
	t.MaxIdleConnsPerHost = idlePerHost
	d := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if dialed != nil {
			dialed(addr)
		}
		return d.DialContext(ctx, network, addr)
	}
	out := &http.Client{}
	if c != nil {
		*out = *c
	}
	out.Transport = t
	return out, t
}

// DrainBody reads what is left of a response body, up to 4 KB, before the
// caller closes it. net/http returns a connection to its idle pool only when
// the body was read to EOF; a body closed early costs the connection, and the
// next call to that host pays a dial. What a decoder leaves behind is an
// error text, a trailing newline or a chunked terminator — anything longer is
// not worth reading to save a connection.
func DrainBody(r io.Reader) {
	io.Copy(io.Discard, io.LimitReader(r, 4<<10))
}

package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeadersAreDisconnected opens a socket, sends half a request and
// stops: the server must hang up on it. Without a ReadHeaderTimeout the
// connection, and the goroutine serving it, stay for as long as the client
// likes.
func TestSlowHeadersAreDisconnected(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("edge timeouts unset: read-header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond // the same server, in test time
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: fleetd\r\n"); err != nil {
		t.Fatal(err)
	}
	// The headers never end. Reading returns once the server closes its side.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("the server kept a connection whose headers never arrived: %v", err)
	}
}

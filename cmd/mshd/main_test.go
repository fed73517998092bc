package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startServer serves h through httpServer on a loopback port with the
// given read bounds and returns its address.
func startServer(t *testing.T, h http.Handler, readHeader, read time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := httpServer(ln.Addr().String(), h, readHeader, read)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// dial opens a raw connection with a generous overall deadline, so a
// server that fails to enforce its bound fails the test instead of
// hanging it.
func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c
}

func TestReadHeaderTimeoutDropsStalledClient(t *testing.T) {
	addr := startServer(t, http.NotFoundHandler(), 50*time.Millisecond, time.Minute)
	c := dial(t, addr)
	// Headers that never finish: no terminating blank line.
	if _, err := io.WriteString(c, "GET /v1/healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	n, err := c.Read(make([]byte, 1))
	if n != 0 || err == nil {
		t.Fatalf("read after stalled headers = %d bytes, err %v; want the server to close", n, err)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("client deadline hit first: server kept the stalled connection open")
	}
}

func TestReadTimeoutBoundsSlowBody(t *testing.T) {
	bodyErr := make(chan error, 1)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := io.ReadAll(r.Body)
		bodyErr <- err
		if err != nil {
			http.Error(w, "slow body", http.StatusRequestTimeout)
		}
	})
	addr := startServer(t, h, time.Minute, 100*time.Millisecond)
	c := dial(t, addr)
	// Complete headers, then only part of the promised body.
	req := "POST /v1/sessions HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n{\"a\""
	if _, err := io.WriteString(c, req); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-bodyErr:
		if err == nil {
			t.Fatal("handler read a truncated body without error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("body read not bounded by the read timeout")
	}
}

func TestPromptRequestUnaffectedByBounds(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	addr := startServer(t, h, time.Second, time.Second)
	c := dial(t, addr)
	if _, err := io.WriteString(c, "GET / HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 16))
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "ok") {
		t.Fatalf("prompt request = %d %q, want 200 ok", resp.StatusCode, body)
	}
}

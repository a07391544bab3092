package main

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"time"
)

// conn is one persistent loopback connection speaking HTTP/1.1. A plain
// net.Conn keeps the generator's own CPU low and lets it time the first body
// byte and the last body byte itself.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte // reused across requests
	buf  []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), buf: make([]byte, 32<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// result is one response. body aliases the connection's buffer and is valid
// until the next do on the same connection.
type result struct {
	status     int
	body       []byte
	start      time.Time // before the request is written
	first, end time.Time // first result on the wire, last body byte
}

// requestTimeout bounds one request; every workload's slowest operation is
// two orders of magnitude below it.
const requestTimeout = 60 * time.Second

// do writes r and reads the whole response. For a streamed response first is
// when the first complete NDJSON line has arrived, otherwise when the first
// body byte has.
func (c *conn) do(r *request) (result, error) {
	res := result{start: time.Now()}
	if err := c.c.SetDeadline(res.start.Add(requestTimeout)); err != nil {
		return res, err
	}
	if _, err := c.c.Write(r.wire); err != nil {
		return res, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	c.body = c.body[:0]
	for {
		n, err := resp.Body.Read(c.buf)
		if n > 0 {
			if res.first.IsZero() && (!r.stream || bytes.IndexByte(c.buf[:n], '\n') >= 0) {
				res.first = time.Now()
			}
			c.body = append(c.body, c.buf[:n]...)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
	}
	res.end = time.Now()
	if res.first.IsZero() {
		res.first = res.end
	}
	res.body = c.body
	return res, nil
}

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"time"
)

// requestTimeout bounds one request; the server's own query timeout is 30 s.
const requestTimeout = 60 * time.Second

// conn is one keep-alive HTTP/1.1 connection to the server. It writes
// prepared request bytes and reads the response into a buffer it reuses:
// on a cache hit the server spends tens of microseconds, and a client that
// spent as much would measure itself.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
}

// response is what came back. body and etag are valid until the next request
// on the connection.
type response struct {
	status int
	body   []byte
	etag   []byte
	// firstLine is the time from sending to the end of the first line of
	// the body, and total the time to its last byte.
	firstLine, total time.Duration
}

func (c *conn) close() {
	if c.c != nil {
		_ = c.c.Close() // nothing is buffered for writing
		c.c = nil
	}
}

// do sends one request and reads the whole response, timing from start. A
// transport error closes the connection; the next request dials again.
func (c *conn) do(wire []byte, start time.Time) (response, error) {
	var resp response
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return resp, err
		}
		c.c = nc
		c.br = bufio.NewReaderSize(nc, 64<<10)
	}
	err := c.c.SetDeadline(start.Add(requestTimeout))
	if err == nil {
		_, err = c.c.Write(wire)
	}
	keep := false
	if err == nil {
		keep, err = c.read(&resp, start)
	}
	if err != nil || !keep {
		c.close()
	}
	return resp, err
}

// read parses one response. keep reports whether the connection can carry
// another request.
func (c *conn) read(resp *response, start time.Time) (keep bool, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return false, fmt.Errorf("malformed status line %q", line)
	}
	if resp.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return false, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	keep = true
	c.buf = c.buf[:0]
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return false, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			keep = !bytes.EqualFold(value, []byte("close"))
		case bytes.EqualFold(name, []byte("ETag")):
			// Kept at the front of the buffer, before the body.
			c.buf = append(c.buf, value...)
		}
	}
	etagLen := len(c.buf)
	switch {
	case chunked:
		err = c.readChunks(resp, start)
	case length >= 0:
		_, err = io.ReadFull(c.br, c.grow(length))
	default:
		return false, errors.New("response with neither Content-Length nor chunked encoding")
	}
	if err != nil {
		return false, err
	}
	resp.total = time.Since(start)
	resp.etag, resp.body = c.buf[:etagLen], c.buf[etagLen:]
	if resp.firstLine == 0 {
		resp.firstLine = resp.total
	}
	return keep, nil
}

// grow lengthens the buffer by n bytes and returns them. Unlike appending a
// new slice it does not clear what it reuses.
func (c *conn) grow(n int) []byte {
	at := len(c.buf)
	c.buf = slices.Grow(c.buf, n)[:at+n]
	return c.buf[at:]
}

// readChunks reads a chunked body, noting when its first line was complete.
func (c *conn) readChunks(resp *response, start time.Time) error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, err := strconv.ParseUint(string(bytes.TrimRight(line, "\r\n")), 16, 31)
		if err != nil {
			return fmt.Errorf("malformed chunk size %q", line)
		}
		if size == 0 {
			// No trailers are sent; the blank line ends the body.
			_, err = c.br.Discard(2)
			return err
		}
		chunk := c.grow(int(size))
		if _, err := io.ReadFull(c.br, chunk); err != nil {
			return err
		}
		if resp.firstLine == 0 && bytes.IndexByte(chunk, '\n') >= 0 {
			resp.firstLine = time.Since(start)
		}
		if _, err := c.br.Discard(2); err != nil {
			return err
		}
	}
}

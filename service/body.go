package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// bodyPrealloc caps what a declared Content-Length buys before its bytes
// arrive: beyond it the buffer grows with the bytes actually received, so
// a peer cannot reserve memory by declaring a length it never sends.
const bodyPrealloc = 64 << 10

// errBodyTooLarge refuses a body, declared or received, above its limit.
var errBodyTooLarge = errors.New("http: request body too large")

// readBody reads body to its end, and at most limit bytes of it. declared
// is the sender's Content-Length, -1 when unknown (chunked). A declared
// length above limit is refused before anything is allocated; one within
// it sizes the buffer, up to bodyPrealloc, so a body is read once into
// the slice it is decoded from.
func readBody(body io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return nil, errBodyTooLarge
	}
	size := int64(512)
	if declared >= 0 {
		size = min(declared, bodyPrealloc)
	}
	// The spare byte takes the read that meets EOF without a regrowth.
	buf := make([]byte, 0, size+1)
	r := io.LimitedReader{R: body, N: limit + 1}
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
	if int64(len(buf)) > limit {
		return nil, errBodyTooLarge
	}
	return buf, nil
}

// decodeJSON reads a request body of at most limit bytes and decodes it,
// wrapping failures in the message the handlers answer 400 with. Unlike a
// streaming decoder it refuses trailing bytes after the JSON value.
func decodeJSON(r *http.Request, limit int64, v any) error {
	raw, err := readBody(r.Body, r.ContentLength, limit)
	if err == nil {
		err = json.Unmarshal(raw, v)
	}
	if err != nil {
		return fmt.Errorf("malformed request: %v", err)
	}
	return nil
}

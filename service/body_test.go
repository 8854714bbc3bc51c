package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

// TestReadBody: a body is read whole whatever its framing; a declared
// length over the limit is refused before any allocation, and a declared
// length the sender does not honour buys at most bodyPrealloc.
func TestReadBody(t *testing.T) {
	const limit = 1 << 20
	body := bytes.Repeat([]byte("x"), 3000)
	for _, tc := range []struct {
		name     string
		r        io.Reader
		declared int64
	}{
		{"declared", bytes.NewReader(body), int64(len(body))},
		{"chunked", bytes.NewReader(body), -1},
		{"one byte at a time", iotest.OneByteReader(bytes.NewReader(body)), int64(len(body))},
		{"data with EOF", iotest.DataErrReader(bytes.NewReader(body)), -1},
	} {
		got, err := readBody(tc.r, tc.declared, limit)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("%s: %d bytes, %v", tc.name, len(got), err)
		}
	}
	if got, _ := readBody(bytes.NewReader(body), int64(len(body)), limit); cap(got) != len(body)+1 {
		t.Errorf("declared body read into %d bytes of capacity, want %d", cap(got), len(body)+1)
	}
	if got, _ := readBody(bytes.NewReader(body), limit, limit); cap(got) > 2*bodyPrealloc {
		t.Errorf("an unhonoured declared length bought %d bytes", cap(got))
	}
	if _, err := readBody(bytes.NewReader(body), -1, 2999); err != errBodyTooLarge {
		t.Errorf("undeclared body over the limit: %v", err)
	}
	if _, err := readBody(bytes.NewReader(body), 3000, 3000); err != nil {
		t.Errorf("body at the limit: %v", err)
	}
	var empty io.Reader = bytes.NewReader(nil)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := readBody(empty, limit+1, limit); err != errBodyTooLarge {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a declared length over the limit allocated %v times", n)
	}
}

// TestOversizedDeclaredBodyIs400: the sign handlers refuse a declared
// length over the limit as a bad request, before reading it.
func TestOversizedDeclaredBodyIs400(t *testing.T) {
	f := testFixture(t)
	coord := newTestCoordinator(t, []string{downURL(t), downURL(t), downURL(t), downURL(t), downURL(t), downURL(t), downURL(t)}, CoordinatorConfig{})
	for name, h := range map[string]http.Handler{"coordinator": coord, "signer": newTestSigner(t, f, 1)} {
		for _, path := range []string{"/v1/sign", "/v1/sign-batch"} {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"message":"aGk="}`))
			req.ContentLength = maxRequestBytes + 1
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var er ErrorResponse
			_ = json.Unmarshal(rec.Body.Bytes(), &er)
			if rec.Code != http.StatusBadRequest || er.Code != CodeBadRequest {
				t.Errorf("%s %s: status %d code %q, want 400 %q", name, path, rec.Code, er.Code, CodeBadRequest)
			}
		}
	}
}

// TestTrailingBytesAfterJSONAre400: a body is one JSON value; the bytes
// a streaming decoder used to leave unread are refused.
func TestTrailingBytesAfterJSONAre400(t *testing.T) {
	f := testFixture(t)
	rec := httptest.NewRecorder()
	newTestSigner(t, f, 1).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sign", strings.NewReader(`{"message":"aGk="} trailing`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
}

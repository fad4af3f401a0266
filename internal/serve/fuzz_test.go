package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// FuzzServeEncodeRequest throws arbitrary bytes at the data plane, on
// /v1/encode and /v1/decode, in both envelopes, and pins the service
// contract: the request decoder never panics, every failure is a clean
// 4xx with the JSON error envelope (5xx means a server bug), every
// encode 200 carries a parseable response, and every decode 200 returns
// the request's payload exactly.
func FuzzServeEncodeRequest(f *testing.F) {
	// Seeds: the happy JSON shape, near-misses for every validation arm,
	// and raw binary bodies, on both endpoints.
	for _, decode := range []bool{false, true} {
		f.Add([]byte(`{"scheme":"desc-zero","data":"AAAAAAAAAAA="}`), false, decode)
		f.Add([]byte(`{"scheme":"desc-zero","blocks":["AA=="]}`), false, decode)
		f.Add([]byte(`{"scheme":"desc-zer","data":"AAAA"}`), false, decode)
		f.Add([]byte(`{"scheme":"desc-zero","chunk_bits":-3,"data":"AAAA"}`), false, decode)
		f.Add([]byte(`{"scheme":"desc-zero","data":"!!!"}`), false, decode)
		f.Add([]byte(`{"scheme":`), false, decode)
		f.Add([]byte(`{"scheme":7}`), false, decode)
		f.Add([]byte(``), false, decode)
		f.Add([]byte(`{"scheme":"desc-zero","data":"AAAA","blocks":["AAAA"]}`), false, decode)
		f.Add(bytes.Repeat([]byte{0xA7}, 64), true, decode)
		f.Add([]byte{0x00}, true, decode)
		f.Add([]byte(``), true, decode)
	}
	f.Add([]byte(`{"scheme":"bic","block_bits":64,"data":"AQIDBAUGBwgJCgsMDQ4PEA=="}`), false, true)
	f.Add([]byte(`{"scheme":"desc-basic","block_bits":32,"blocks":["3q2+7w==","AAAAAA=="]}`), false, true)

	s := New(Config{MaxBodyBytes: 1 << 16})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte, binary, decode bool) {
		target := "/v1/encode"
		if decode {
			target = "/v1/decode"
		}
		contentType := "application/json"
		if binary {
			target += "?scheme=desc-zero"
			contentType = "application/octet-stream"
		}
		req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		switch {
		case rec.Code == http.StatusOK && decode && binary:
			if !bytes.Equal(rec.Body.Bytes(), body) {
				t.Fatalf("decode returned %x for payload %x", rec.Body.Bytes(), body)
			}
			if got, want := rec.Header().Get("X-Desc-Blocks"), strconv.Itoa(len(body)/64); got != want {
				t.Fatalf("X-Desc-Blocks = %q for a %d-byte payload, want %s", got, len(body), want)
			}
		case rec.Code == http.StatusOK:
			var resp dataResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 response does not parse: %v; body: %q", err, rec.Body.String())
			}
			if resp.Blocks <= 0 {
				t.Fatalf("200 response reports %d blocks", resp.Blocks)
			}
			if decode {
				checkDecoded(t, body, resp)
			}
		case rec.Code >= 400 && rec.Code < 500:
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("%d error is not the JSON envelope: %q", rec.Code, rec.Body.String())
			}
			if er.Error == "" {
				t.Fatalf("%d error has an empty message", rec.Code)
			}
		default:
			t.Fatalf("status %d outside {200, 4xx}; body: %q", rec.Code, rec.Body.String())
		}
	})
}

// checkDecoded fails unless a JSON decode response carries exactly the
// payload of the request body it answers, in the request's form.
func checkDecoded(t *testing.T, body []byte, resp dataResponse) {
	t.Helper()
	var req blockRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		t.Fatalf("server accepted a request that does not decode: %v", err)
	}
	if req.Data != "" {
		want, err := base64.StdEncoding.DecodeString(req.Data)
		if err != nil {
			t.Fatalf("server accepted data that is not base64: %v", err)
		}
		got, err := base64.StdEncoding.DecodeString(resp.Data)
		if err != nil {
			t.Fatalf("response data is not base64: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("decode returned %x for payload %x", got, want)
		}
		return
	}
	if len(resp.DecodedBlocks) != len(req.Blocks) {
		t.Fatalf("decode returned %d blocks for %d", len(resp.DecodedBlocks), len(req.Blocks))
	}
	for i, b := range req.Blocks {
		want, err := base64.StdEncoding.DecodeString(b)
		if err != nil {
			t.Fatalf("server accepted block %d that is not base64: %v", i, err)
		}
		got, err := base64.StdEncoding.DecodeString(resp.DecodedBlocks[i])
		if err != nil {
			t.Fatalf("decoded block %d is not base64: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("decoded block %d is %x, want %x", i, got, want)
		}
	}
}

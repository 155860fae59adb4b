package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"unicode/utf8"
)

// FuzzErrorEnvelope pins the envelope round trip: every body WriteError
// and WriteErrorStatus emit parses back through ParseErrorEnvelope with
// the code and retryability of the status actually written, and the
// message intact; ParseErrorEnvelope never panics on arbitrary bytes.
func FuzzErrorEnvelope(f *testing.F) {
	f.Add(uint8(0), 404, "adapter EM/x not found")
	f.Add(uint8(3), 429, "shed")
	f.Add(uint8(6), 503, "draining")
	f.Add(uint8(7), 599, "\xff\xfe bad utf8")
	f.Fuzz(func(t *testing.T, kind uint8, status int, msg string) {
		ParseErrorEnvelope([]byte(msg))
		sentinels := []error{ErrUnknownKey, ErrBadKey, ErrOverloaded, ErrDraining,
			context.DeadlineExceeded, context.Canceled, errors.New(msg)}
		rec := httptest.NewRecorder()
		if i := int(kind) % (len(sentinels) + 1); i < len(sentinels) {
			WriteError(rec, fmt.Errorf("%w: %s", sentinels[i], msg))
		} else {
			if status < 0 {
				status = -status
			}
			WriteErrorStatus(rec, 400+status%200, msg)
		}
		eb, ok := ParseErrorEnvelope(rec.Body.Bytes())
		if !ok {
			t.Fatalf("status %d body is not the envelope: %q", rec.Code, rec.Body.String())
		}
		if eb.Code != ErrorCode(rec.Code) || eb.Retryable != ErrorRetryable(rec.Code) {
			t.Fatalf("status %d parsed as code %q retryable %v", rec.Code, eb.Code, eb.Retryable)
		}
		if utf8.ValidString(msg) && kind%uint8(len(sentinels)+1) == uint8(len(sentinels)) && eb.Message != msg {
			t.Fatalf("message %q came back as %q", msg, eb.Message)
		}
	})
}

package analyze

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzReadDrillReport fuzzes the drill-report loader `obs diff` runs on
// files. Properties: it never panics; a document it accepts survives
// Encode → ReadDrillReport unchanged and re-encodes to the same bytes; and
// a document naming an unknown kind or direction is always rejected.
func FuzzReadDrillReport(f *testing.F) {
	f.Add([]byte(`{"schema_version":1,"drill":"job","env":{"go_version":"go1.24.0","gomaxprocs":2,"cpu":"x","revision":"r"},"wall_s":2.5,"config":{"seed":"7"},"notes":{"killed_backend":"http://127.0.0.1:1"},"metrics":[{"name":"byte_identical","value":1,"want":1,"unit":"bool","kind":"invariant"},{"name":"rows_per_s","value":6.1,"unit":"rows/s","better":"higher","kind":"perf"},{"name":"retries","value":3,"kind":"context"}]}`))
	f.Add([]byte(`{"schema_version":1,"drill":"x","env":{},"metrics":[{"name":"a","value":1,"kind":"vibe"}]}`))
	f.Add([]byte(`{"schema_version":1,"drill":"x","env":{},"metrics":[{"name":"a","value":1,"better":"up","kind":"perf"}]}`))
	f.Add([]byte(`{"schema_version":1,"drill":"x","env":{},"config":{},"metrics":null}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		r, err := ReadDrillReport(blob)
		var raw DrillReport
		if json.Unmarshal(blob, &raw) == nil {
			for _, m := range raw.Metrics {
				badKind := m.Kind != KindInvariant && m.Kind != KindPerf && m.Kind != KindContext
				badBetter := m.Better != "" && m.Better != BetterLower && m.Better != BetterHigher
				if (badKind || badBetter) && err == nil {
					t.Fatalf("accepted metric %+v with an unknown kind or direction", m)
				}
			}
		}
		if err != nil {
			return
		}
		var b1 bytes.Buffer
		if err := r.Encode(&b1); err != nil {
			t.Fatalf("accepted report does not encode: %v", err)
		}
		r2, err := ReadDrillReport(b1.Bytes())
		if err != nil {
			t.Fatalf("encoded report does not load: %v\n%s", err, b1.String())
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("round trip changed the report:\n%+v\n%+v", r, r2)
		}
		var b2 bytes.Buffer
		if err := r2.Encode(&b2); err != nil || !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point (err %v):\n%s\n%s", err, b1.String(), b2.String())
		}
	})
}

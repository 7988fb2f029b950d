package surrogate

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzModelUnmarshal feeds arbitrary bytes to the decoder of the
// persisted surrogate blob (the warm-start model read back from the
// -store directory). It must never panic, and a model it accepts must
// be usable: a trained one predicts every target on a Dims()-length
// input, and every one survives a marshal → unmarshal round trip that
// re-marshals to the same bytes. The seed corpus lives under
// testdata/fuzz/FuzzModelUnmarshal.
func FuzzModelUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Model
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		if m.Trained() {
			y, err := m.Predict(make([]float64, m.Dims()))
			if err != nil {
				t.Fatalf("accepted model cannot predict: %v", err)
			}
			if len(y) != len(m.Targets()) {
				t.Fatalf("predicted %d values for %d targets", len(y), len(m.Targets()))
			}
		}
		enc, err := json.Marshal(&m)
		if err != nil {
			t.Fatalf("accepted model does not marshal: %v", err)
		}
		var back Model
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("marshalled model rejected: %v\n%s", err, enc)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("round trip is not stable:\n%s\n%s", enc, again)
		}
	})
}

package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestReadStreamRejectsNonPositiveNodeCount: a job line must carry a
// positive node count.
func TestReadStreamRejectsNonPositiveNodeCount(t *testing.T) {
	for _, n := range []string{"0", "-5"} {
		stream := `{"type":"meta","epoch":"e","series_dt_sec":15}` + "\n" +
			`{"type":"job","job_name":"a","job_id":1,"node_count":` + n + `,"wall_time":30}` + "\n"
		if _, err := ReadStream(strings.NewReader(stream)); err == nil {
			t.Errorf("node_count %s accepted", n)
		}
	}
}

// FuzzReadStream fuzzes the NDJSON stream reader on arbitrary bytes: it
// never panics, and a dataset it accepts survives WriteStream then
// ReadStream unchanged. The seed corpus lives under testdata/fuzz.
func FuzzReadStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteStream(&buf, d); err != nil {
			t.Fatalf("accepted dataset does not write: %v", err)
		}
		back, err := ReadStream(&buf)
		if err != nil {
			t.Fatalf("written stream does not read back: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(d, back) {
			t.Fatalf("round trip changed the dataset:\n got %+v\nwant %+v", back, d)
		}
	})
}

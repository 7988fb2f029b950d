package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// This file implements the streaming (NDJSON) telemetry format: one JSON
// object per line, discriminated by a "type" field —
//
//	{"type":"meta","epoch":"...","series_dt_sec":15}
//	{"type":"series","time_sec":15,"measured_power_w":8.1e6,"wetbulb_c":20}
//	{"type":"job","job_name":"...","job_id":1,...}
//
// It is the only encoding of a Dataset: Dataset.Save writes one whole
// dataset with WriteStream, while a StreamWriter emits samples
// incrementally as a simulation runs, so long replays and sweep
// services never materialize the dense export slices. ReadStream
// reassembles either into the same Dataset the in-memory
// ExportTelemetry produces (bit-for-bit — Go's JSON float encoding
// round-trips float64 exactly).

// StreamWriter emits a telemetry dataset as NDJSON, incrementally.
// Errors are sticky: the first write failure is retained and returned by
// every subsequent call and by Flush, so hot loops can emit without
// checking each line.
type StreamWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

type streamMeta struct {
	Type        string  `json:"type"`
	Epoch       string  `json:"epoch"`
	SeriesDtSec float64 `json:"series_dt_sec"`
}

type streamSeries struct {
	Type string `json:"type"`
	SeriesPoint
}

type streamJob struct {
	Type string `json:"type"`
	JobRecord
}

// NewStreamWriter starts an NDJSON telemetry stream on w, emitting the
// meta line immediately.
func NewStreamWriter(w io.Writer, epoch string, seriesDtSec float64) *StreamWriter {
	bw := bufio.NewWriter(w)
	s := &StreamWriter{bw: bw, enc: json.NewEncoder(bw)}
	s.encode(streamMeta{Type: "meta", Epoch: epoch, SeriesDtSec: seriesDtSec})
	return s
}

func (s *StreamWriter) encode(v any) error {
	if s.err != nil {
		return s.err
	}
	s.err = s.enc.Encode(v)
	return s.err
}

// Series appends one system-level sample line.
func (s *StreamWriter) Series(p SeriesPoint) error {
	return s.encode(streamSeries{Type: "series", SeriesPoint: p})
}

// Job appends one Table II job-record line.
func (s *StreamWriter) Job(r JobRecord) error {
	return s.encode(streamJob{Type: "job", JobRecord: r})
}

// Flush drains the buffer and returns the stream's sticky error state.
func (s *StreamWriter) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// WriteStream emits a whole in-memory dataset in the NDJSON format —
// the non-incremental form Dataset.Save writes.
func WriteStream(w io.Writer, d *Dataset) error {
	s := NewStreamWriter(w, d.Epoch, d.SeriesDtSec)
	for i := range d.Jobs {
		s.Job(d.Jobs[i])
	}
	for _, p := range d.Series {
		s.Series(p)
	}
	return s.Flush()
}

// ReadStream reassembles an NDJSON telemetry stream into a Dataset.
// Line order is free: series and job lines may interleave (a live run
// streams series during the run and jobs at the end); the meta line, if
// present, must come first.
func ReadStream(r io.Reader) (*Dataset, error) {
	d := &Dataset{}
	dec := json.NewDecoder(r)
	for line := 0; ; line++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			return d, nil
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: stream line %d: %w", line, err)
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("telemetry: stream line %d: %w", line, err)
		}
		if probe.Type == "meta" && line != 0 {
			return nil, fmt.Errorf("telemetry: stream line %d: meta not first", line)
		}
		if err := d.DecodeStreamLine(probe.Type, raw); err != nil {
			return nil, fmt.Errorf("telemetry: stream line %d: %w", line, err)
		}
	}
}

// DecodeStreamLine applies one stream line of the given type — meta,
// series or job — to d; any other type is an error. A job line must
// carry a positive node count. Line-order rules are the caller's:
// ReadStream wants meta first, and the result store embeds these lines
// in its own framing.
func (d *Dataset) DecodeStreamLine(typ string, raw []byte) error {
	switch typ {
	case "meta":
		var m streamMeta
		if err := json.Unmarshal(raw, &m); err != nil {
			return err
		}
		d.Epoch, d.SeriesDtSec = m.Epoch, m.SeriesDtSec
	case "series":
		var p SeriesPoint
		if err := json.Unmarshal(raw, &p); err != nil {
			return err
		}
		// The writer omits an empty split, so an explicit empty one reads
		// as absent and the dataset round-trips.
		if len(p.PartPowerW) == 0 {
			p.PartPowerW = nil
		}
		d.Series = append(d.Series, p)
	case "job":
		var j JobRecord
		if err := json.Unmarshal(raw, &j); err != nil {
			return err
		}
		if j.NodeCount <= 0 {
			return fmt.Errorf("non-positive node count %d", j.NodeCount)
		}
		d.Jobs = append(d.Jobs, j)
	default:
		return fmt.Errorf("unknown type %q", typ)
	}
	return nil
}

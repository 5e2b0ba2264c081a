package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// ParseRun decodes a run artifact previously written with EncodeRun
// (or any canonical-JSON RunArtifact). It is the read path of the
// content-addressed artifact store: callers fetch stored bytes by
// hash and decode them here. Unknown fields are rejected — an
// artifact written by a newer schema must fail loudly, not decode to
// a silently truncated record — and the schema version is gated.
func ParseRun(data []byte) (RunArtifact, error) {
	var a RunArtifact
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return RunArtifact{}, fmt.Errorf("obs: decoding run artifact: %w", err)
	}
	// Trailing garbage after the document means a torn or concatenated
	// file; reject it rather than return half an artifact.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return RunArtifact{}, fmt.Errorf("obs: trailing data after run artifact")
	}
	if a.SchemaVersion != SchemaVersion {
		return RunArtifact{}, fmt.Errorf("obs: run artifact schema %d, want %d", a.SchemaVersion, SchemaVersion)
	}
	return a, nil
}

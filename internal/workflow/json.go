package workflow

import (
	"encoding/json"
	"fmt"
)

// MarshalSpec serializes a spec as indented JSON.
func MarshalSpec(s *Spec) ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// UnmarshalSpec parses and validates a spec from JSON.
func UnmarshalSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("workflow: decode spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

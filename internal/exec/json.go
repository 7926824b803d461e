package exec

import (
	"encoding/json"
	"fmt"
	"io"
)

// MarshalExecution serializes an execution as indented JSON.
func MarshalExecution(e *Execution) ([]byte, error) {
	return json.MarshalIndent(e, "", "  ")
}

// UnmarshalExecution parses (DecodeExecution) and validates an execution
// from JSON.
func UnmarshalExecution(data []byte) (*Execution, error) {
	e, err := DecodeExecution(data)
	if err != nil {
		return nil, err
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// WriteExecution writes the JSON encoding of e to w.
func WriteExecution(w io.Writer, e *Execution) error {
	data, err := MarshalExecution(e)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ReadExecution reads and validates an execution from r.
func ReadExecution(r io.Reader) (*Execution, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("exec: read execution: %w", err)
	}
	return UnmarshalExecution(data)
}

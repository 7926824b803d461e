package exec

import "encoding/json"

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

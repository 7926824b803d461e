package exec

// The value record and its reader, for the external test package's
// differential fuzz target.
type ValueRecord = valueRecord

func DecodeValueRecord(data []byte) (ValueRecord, error) { return decodeValueRecord(data, nil) }

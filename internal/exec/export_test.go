package exec

// The value record and its reader, for the external test package's
// differential fuzz target.
type ValueRecord = valueRecord

func DecodeValueRecord(data []byte) (ValueRecord, error) {
	return decodeValueRecord(data, &valueScratch{})
}

// Execution materializes st as the execution it stores: its shape's
// structure, shared, with st's values in fresh items.
func (st *Stored) Execution() *Execution {
	return st.shape.lay.Materialize(st.shape.rep, st.ID, &st.vec)
}

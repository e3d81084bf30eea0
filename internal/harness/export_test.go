package harness

// Count returns the number of resident (valid-named) records.
func (s *CheckpointStore) Count() (int, error) {
	names, err := s.blobs.List(".ckpt")
	return len(names), err
}

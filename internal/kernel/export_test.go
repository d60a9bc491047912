package kernel

// Estimates returns how many threads the policy holds a rate for.
func (s *Scheduler) Estimates() int { return len(s.rate) }

package core

import "expresspass/internal/unit"

// Rate returns the receiver's current credit sending rate.
func (s *Session) Rate() unit.Rate { return s.rcv.fb.Rate }

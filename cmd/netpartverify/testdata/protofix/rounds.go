package protofix

// The repart Engine.Round shape — workers report to rank 0, rank 0 answers
// every worker — done right once and wrong four ways. The payloads go
// through two wire groups, so the extractor names what each send carries
// and what each receive decodes.

//netpart:wire stat encode
func encodeStat(ms, rows uint16) []byte {
	buf := make([]byte, 4)
	buf[0], buf[1] = byte(ms>>8), byte(ms)
	buf[2], buf[3] = byte(rows>>8), byte(rows)
	return buf
}

//netpart:wire stat decode
func decodeStat(buf []byte) (ms, rows uint16) {
	ms = uint16(buf[0])<<8 | uint16(buf[1])
	rows = uint16(buf[2])<<8 | uint16(buf[3])
	return ms, rows
}

//netpart:wire meas encode
func encodeMeas(ms uint16) []byte {
	return []byte{byte(ms >> 8), byte(ms)}
}

//netpart:wire meas decode
func decodeMeas(buf []byte) uint16 {
	return uint16(buf[0])<<8 | uint16(buf[1])
}

// goodRound is the symmetric hub exchange: it must verify clean at every
// P under both semantics.
//
//netpart:lockstep
func goodRound(tr *conn, ms, rows uint16) error {
	rank, size := tr.Rank(), tr.Size()
	if rank != 0 {
		if err := tr.Send(0, encodeStat(ms, rows)); err != nil {
			return err
		}
		buf, err := tr.Recv(0)
		if err != nil {
			return err
		}
		_, _ = decodeStat(buf)
		return nil
	}
	for src := 1; src < size; src++ {
		buf, err := tr.Recv(src)
		if err != nil {
			return err
		}
		_, _ = decodeStat(buf)
	}
	msg := encodeStat(ms, rows)
	for dst := 1; dst < size; dst++ {
		if err := tr.Send(dst, msg); err != nil {
			return err
		}
	}
	return nil
}

// lostRound: the workers report upward but the hub never drains the
// reports, and nobody receives the hub's answer — unmatched sends on both
// sides of the rank split. Rendezvous blocks on them (deadlock); a
// buffering transport lets the round end with the messages still queued
// (leftover).
//
//netpart:lockstep
func lostRound(tr *conn, ms, rows uint16) error {
	rank, size := tr.Rank(), tr.Size()
	if rank != 0 {
		if err := tr.Send(0, encodeStat(ms, rows)); err != nil {
			return err
		}
		return nil
	}
	msg := encodeStat(ms, rows)
	for dst := 1; dst < size; dst++ {
		if err := tr.Send(dst, msg); err != nil {
			return err
		}
	}
	return nil
}

// selfRound: the hub routes its own share through the transport before
// the broadcast — a send to the rank that executes it.
//
//netpart:lockstep
func selfRound(tr *conn, ms, rows uint16) error {
	rank, size := tr.Rank(), tr.Size()
	if rank != 0 {
		if err := tr.Send(0, encodeStat(ms, rows)); err != nil {
			return err
		}
		buf, err := tr.Recv(0)
		if err != nil {
			return err
		}
		_, _ = decodeStat(buf)
		return nil
	}
	for src := 1; src < size; src++ {
		buf, err := tr.Recv(src)
		if err != nil {
			return err
		}
		_, _ = decodeStat(buf)
	}
	msg := encodeStat(ms, rows)
	if err := tr.Send(0, msg); err != nil {
		return err
	}
	for dst := 1; dst < size; dst++ {
		if err := tr.Send(dst, msg); err != nil {
			return err
		}
	}
	return nil
}

// deadlockRound: both sides of the split receive before sending, so every
// rank waits on the other.
//
//netpart:lockstep
func deadlockRound(tr *conn, ms, rows uint16) error {
	rank := tr.Rank()
	if rank != 0 {
		buf, err := tr.Recv(0)
		if err != nil {
			return err
		}
		_, _ = decodeStat(buf)
		if err := tr.Send(0, encodeStat(ms, rows)); err != nil {
			return err
		}
		return nil
	}
	buf, err := tr.Recv(1)
	if err != nil {
		return err
	}
	_, _ = decodeStat(buf)
	if err := tr.Send(1, encodeStat(ms, rows)); err != nil {
		return err
	}
	return nil
}

// peerSkew: the two ranks of a pair run the same code against each other,
// but what goes out is group "stat" and what is decoded coming back is
// group "meas".
//
//netpart:lockstep
func peerSkew(tr *conn, ms, rows uint16) error {
	if tr.Size() == 2 {
		peer := 1 - tr.Rank()
		if err := tr.Send(peer, encodeStat(ms, rows)); err != nil {
			return err
		}
		buf, err := tr.Recv(peer)
		if err != nil {
			return err
		}
		_ = decodeMeas(buf)
	}
	return nil
}

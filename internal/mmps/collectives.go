package mmps

import "fmt"

// Collective operations built from the point-to-point verbs, following the
// synchronous patterns of the paper's topology set: every participant
// calls the same collective with its own transport; rank 0 is the root
// where one is needed. They work over both the UDP and in-memory
// transports.

// Bcast distributes the root's data to every rank: the root passes the
// payload and every call returns it.
func Bcast(tr Transport, data []byte) ([]byte, error) {
	if tr.Rank() == 0 {
		for dst := 1; dst < tr.Size(); dst++ {
			if err := tr.Send(dst, data); err != nil {
				return nil, fmt.Errorf("mmps: bcast to %d: %w", dst, err)
			}
		}
		return data, nil
	}
	out, err := tr.Recv(0)
	if err != nil {
		return nil, fmt.Errorf("mmps: bcast recv: %w", err)
	}
	return out, nil
}

// Gather collects each rank's data at the root. The root receives the
// slice indexed by rank (its own entry included); other ranks receive nil.
func Gather(tr Transport, data []byte) ([][]byte, error) {
	if tr.Rank() != 0 {
		if err := tr.Send(0, data); err != nil {
			return nil, fmt.Errorf("mmps: gather send: %w", err)
		}
		return nil, nil
	}
	out := make([][]byte, tr.Size())
	out[0] = append([]byte(nil), data...)
	for src := 1; src < tr.Size(); src++ {
		buf, err := tr.Recv(src)
		if err != nil {
			return nil, fmt.Errorf("mmps: gather from %d: %w", src, err)
		}
		out[src] = buf
	}
	return out, nil
}

// AllGather gives every rank the slice of all ranks' data (gather at the
// root, then a broadcast of the concatenation).
func AllGather(tr Transport, data []byte) ([][]byte, error) {
	size := tr.Size()
	gathered, err := Gather(tr, data)
	if err != nil {
		return nil, err
	}
	if tr.Rank() == 0 {
		// Frame: per rank, a 4-byte length then the payload.
		var flat []byte
		for _, part := range gathered {
			flat = append(flat, byte(len(part)>>24), byte(len(part)>>16), byte(len(part)>>8), byte(len(part)))
			flat = append(flat, part...)
		}
		if _, err := Bcast(tr, flat); err != nil {
			return nil, err
		}
		return gathered, nil
	}
	flat, err := Bcast(tr, nil)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, size)
	for i := 0; i < size; i++ {
		if len(flat) < 4 {
			return nil, fmt.Errorf("mmps: allgather frame truncated at rank %d", i)
		}
		n := int(flat[0])<<24 | int(flat[1])<<16 | int(flat[2])<<8 | int(flat[3])
		flat = flat[4:]
		if n < 0 || n > len(flat) {
			return nil, fmt.Errorf("mmps: allgather length %d exceeds frame", n)
		}
		out = append(out, flat[:n:n])
		flat = flat[n:]
	}
	return out, nil
}

// Package unextractable holds a lockstep round written outside the
// fragment netpartverify can extract: the worker's send sits in a return
// expression. No other tool checks //netpart:lockstep functions, so the
// command must refuse it (exit 1), not skip it. Like protofix, the package
// lives under testdata so the module's recursive sweeps never see it.
package unextractable

type conn struct{ rank, size int }

func (c *conn) Rank() int { return c.rank }

func (c *conn) Size() int { return c.size }

func (c *conn) Send(dst int, payload []byte) error { return nil }

func (c *conn) Recv(src int) ([]byte, error) { return nil, nil }

// Report is a correct one-way report to rank 0; only its shape is wrong.
//
//netpart:lockstep
func Report(c *conn) error {
	if c.Rank() != 0 {
		return c.Send(0, nil)
	}
	for src := 1; src < c.Size(); src++ {
		if _, err := c.Recv(src); err != nil {
			return err
		}
	}
	return nil
}

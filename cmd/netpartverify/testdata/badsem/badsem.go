// Package badsem holds a lockstep directive that declares a transport
// contract netpartverify does not know. Loading it must fail (exit 2):
// silently checking the function under the default semantics would claim
// more than its source asked for. Like protofix, the package lives under
// testdata so the module's recursive sweeps never see it.
package badsem

type conn struct{ rank, size int }

func (c *conn) Rank() int { return c.rank }

func (c *conn) Size() int { return c.size }

func (c *conn) Send(dst int, payload []byte) error { return nil }

func (c *conn) Recv(src int) ([]byte, error) { return nil, nil }

// Swap is a correct pairwise exchange; only its directive is wrong.
//
//netpart:lockstep sem=bogus
func Swap(c *conn) {
	if c.Size() == 2 {
		peer := 1 - c.Rank()
		c.Send(peer, nil)
		c.Recv(peer)
	}
}

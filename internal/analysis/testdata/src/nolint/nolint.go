// Package nolint is the fixture for the suppression convention.
//
//netpart:deterministic
package nolint

import "math/rand"

func suppressed() int {
	return rand.Int() //nolint:netpart reason=fixture demonstrating a justified blanket suppression
}

func scoped() int {
	return rand.Int() //nolint:netpart/determinism reason=fixture demonstrating a scoped suppression
}

func wrongScope() int {
	return rand.Int() //nolint:netpart/allocfree reason=scoped to another analyzer so it must not apply // want `global rand\.Int is auto-seeded`
}

func unknownScope() int {
	return rand.Int() //nolint:netpart/hotpath reason=names an analyzer that no longer exists // want `scoped to "hotpath", which is not an analyzer` `global rand\.Int is auto-seeded`
}

func noReason() int {
	return rand.Int() //nolint:netpart // want `suppression without a reason` `global rand\.Int is auto-seeded`
}

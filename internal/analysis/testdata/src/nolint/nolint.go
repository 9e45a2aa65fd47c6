// Package nolint is the fixture for the suppression convention.
//
//netpart:deterministic
package nolint

import "time"

func suppressed() time.Time {
	return time.Now() //nolint:netpart reason=fixture demonstrating a justified blanket suppression
}

func scoped() time.Time {
	return time.Now() //nolint:netpart/determinism reason=fixture demonstrating a scoped suppression
}

func wrongScope() time.Time {
	return time.Now() //nolint:netpart/allocfree reason=scoped to another analyzer so it must not apply // want `time\.Now reads the wall clock`
}

func unknownScope() time.Time {
	return time.Now() //nolint:netpart/hotpath reason=names an analyzer that no longer exists // want `scoped to "hotpath", which is not an analyzer` `time\.Now reads the wall clock`
}

func noReason() time.Time {
	return time.Now() //nolint:netpart // want `suppression without a reason` `time\.Now reads the wall clock`
}

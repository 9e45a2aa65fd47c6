// Fixture assembly for asm.go. Nothing assembles this file (the go tool
// skips testdata); the analyzer only reads the TEXT headers.

#include "textflag.h"

TEXT ·leafSum(SB), NOSPLIT, $0-24
	RET

TEXT ·framedSum(SB), NOSPLIT, $32-24
	RET

TEXT ·splitSum(SB), 0, $0-24
	RET

TEXT ·escapingSum(SB), NOSPLIT|NOFRAME, $0-24
	RET

package binned

// AVX2 and AVX-512 engine selection for the two-level deposit path.
// The assembly kernels perform the same exact floating-point
// operations as the portable depositGroupsGo, each element landing in
// the same sublane, so installing them is invisible to the
// reproducibility contract — neither the State nor Finalize bits can
// depend on which engine ran.

//go:noescape
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func depositGroupsAVX2(xs []float64, consts *[3]float64, efLo, efSpan int64, q *[16]float64) int64

//go:noescape
func depositGroupsAVX512(xs []float64, consts *[3]float64, efLo, efSpan int64, q *[16]float64) int64

// cpuHas reports whether CPUID leaf 1 ECX has OSXSAVE and every bit of
// ecx1, the OS has enabled every XCR0 state component in xcr0, and
// CPUID leaf 7 EBX has every bit of ebx7.
func cpuHas(ecx1, xcr0, ebx7 uint32) bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|ecx1) != osxsave|ecx1 {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&xcr0 != xcr0 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&ebx7 == ebx7
}

// hasAVX2 reports whether the CPU and OS support AVX2: the AVX flag,
// OS-enabled XMM and YMM state (XCR0 bits 1 and 2), and AVX2.
func hasAVX2() bool { return cpuHas(1<<28, 0x6, 1<<5) }

// hasAVX512 reports whether the CPU and OS support AVX-512F: OS-enabled
// XMM, YMM, opmask and both ZMM state components (XCR0 bits 1, 2, 5, 6
// and 7), and AVX512F.
func hasAVX512() bool { return cpuHas(0, 0xe6, 1<<16) }

// useAVX2 and useAVX512 route depositGroupsFast to the assembly
// kernels; tests toggle them to compare every engine.
var (
	useAVX2   = hasAVX2()
	useAVX512 = useAVX2 && hasAVX512()
)

// depositGroupsFast runs the widest group kernel this CPU supports.
// The AVX-512 kernel stops at the first 8-group it cannot consume; the
// AVX2 kernel then takes at most one 4-group of what is left (the tail
// below 8, or the eligible first half of that 8-group), so a group the
// caller has just re-anchored for is always consumed. No callee lets
// the quad pointer escape, so the caller's quad stays on its stack.
func depositGroupsFast(xs []float64, consts *[3]float64, efLo, efSpan int64, q *[16]float64) int64 {
	if useAVX512 {
		k := depositGroupsAVX512(xs, consts, efLo, efSpan, q)
		return k + depositGroupsAVX2(xs[k:], consts, efLo, efSpan, q)
	}
	if useAVX2 {
		return depositGroupsAVX2(xs, consts, efLo, efSpan, q)
	}
	return depositGroupsGo(xs, consts, efLo, efSpan, q)
}

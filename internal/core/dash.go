// Package core implements the paper's contribution: intra-disk
// parallelism. It provides the DASH taxonomy for naming design points in
// the intra-disk parallelism space, and ParallelDrive, the paper's
// evaluated HC-SD-SA(n) design (taxonomy point D1·An·S1·H1) built on the
// disk package's drive engine, which also models the two relaxed
// variants the technical report studies (multiple arms in motion,
// multiple channels) and the graceful-degradation behavior of §8.
package core

import (
	"fmt"
	"regexp"
	"strconv"
)

// DASH names a design point in the paper's intra-disk parallelism
// taxonomy: Dk·Al·Sm·Hn, the degree of parallelism in Disk stacks, Arm
// assemblies, Surfaces, and Heads (coarsest to finest).
type DASH struct {
	D int // independent disk (spindle) stacks
	A int // independent arm assemblies (actuators) per stack
	S int // surfaces accessible in parallel per actuator
	H int // heads per arm able to transfer in parallel
}

// Conventional is a conventional drive: one stack, one actuator, one
// surface at a time, one head per arm (D1A1S1H1).
func Conventional() DASH { return DASH{D: 1, A: 1, S: 1, H: 1} }

// SA returns the paper's evaluated family HC-SD-SA(n): n independent
// actuators on a single spindle (D1·An·S1·H1).
func SA(n int) DASH { return DASH{D: 1, A: n, S: 1, H: 1} }

// Validate reports the first problem with the configuration, if any.
func (d DASH) Validate() error {
	if d.D <= 0 || d.A <= 0 || d.S <= 0 || d.H <= 0 {
		return fmt.Errorf("core: all DASH degrees must be positive, got %s", d)
	}
	if d.S > 2 {
		return fmt.Errorf("core: S=%d exceeds the two surfaces of a platter", d.S)
	}
	return nil
}

// String renders the canonical taxonomy name, e.g. "D1A2S1H2".
func (d DASH) String() string {
	return fmt.Sprintf("D%dA%dS%dH%d", d.D, d.A, d.S, d.H)
}

// DataPaths reports the maximum number of simultaneous data transfer
// paths the design can provide: the product of the four degrees (a
// D1A2S1H2 drive provides four paths, as Figure 1(b) of the paper shows).
func (d DASH) DataPaths() int { return d.D * d.A * d.S * d.H }

// IsConventional reports whether the design is a conventional drive.
func (d DASH) IsConventional() bool { return d == Conventional() }

var dashRe = regexp.MustCompile(`^D(\d+)A(\d+)S(\d+)H(\d+)$`)

// ParseDASH parses a canonical taxonomy name such as "D1A4S1H1".
func ParseDASH(s string) (DASH, error) {
	m := dashRe.FindStringSubmatch(s)
	if m == nil {
		return DASH{}, fmt.Errorf("core: %q is not a DkAlSmHn taxonomy name", s)
	}
	var vals [4]int
	for i := 0; i < 4; i++ {
		v, err := strconv.Atoi(m[i+1])
		if err != nil {
			return DASH{}, fmt.Errorf("core: parsing %q: %v", s, err)
		}
		vals[i] = v
	}
	d := DASH{D: vals[0], A: vals[1], S: vals[2], H: vals[3]}
	if err := d.Validate(); err != nil {
		return DASH{}, err
	}
	return d, nil
}

package a

import "fmt"

// Hot violates the zero-alloc contract in every way the analyzer knows.
//
//age:hotpath
func Hot(dst []byte, n int) []byte {
	buf := make([]byte, n) // want `make allocates`
	_ = buf
	s := []int{1, 2, 3} // want `slice literal allocates`
	_ = s
	msg := fmt.Sprintf("n=%d", n) // want `fmt.Sprintf allocates`
	b := []byte(msg)              // want `string-to-slice conversion allocates`
	_ = b
	var out []int
	out = append(out, n) // want `append to out, declared without capacity`
	_ = out
	g := func() int { return n } // want `variable-capturing closure allocates`
	_ = g
	return dst
}

// MustBeHot is on the required list but carries no annotation.
func MustBeHot() {} // want `MustBeHot is a known hot path and must be annotated`

type Cell struct{}

func (*Cell) Step() {} // want `Step is a known hot path and must be annotated`

// Optimizer.Step shares the name but is not the required method.
type Optimizer struct{}

func (Optimizer) Step() {}

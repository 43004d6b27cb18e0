//go:build !amd64

package workload

// haveSHANI is false off amd64: there is no SHA-1 kernel, and every
// descriptor is hashed by crypto/sha1.
const haveSHANI = false

// childDescNI is never called: it exists so that code guarded by haveSHANI
// compiles on every architecture.
func childDescNI(dst, parent *[20]byte, i uint32) {
	panic("workload: no SHA-1 kernel on this architecture")
}

// haveSHA1x16 is false off amd64; it is a variable, as on amd64, only so
// that tests can set it.
var haveSHA1x16 = false

// sha1x16 is never called: see childDescNI.
func sha1x16(h *[5][16]uint32, w *[16][16]uint32) {
	panic("workload: no SHA-1 lane kernel on this architecture")
}

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

//go:build wirepoison

package wire

// Built with -tags wirepoison, every PutBuf poisons the buffer it returns
// (see poisonPuts): a test binary built this way fails loudly wherever a
// recycled buffer is still aliased. scripts/ci.sh runs the core suites so.
func init() { poisonPuts = true }

//go:build !amd64

package binned

// testEngine names one group kernel depositGroupsFast can route to.
type testEngine struct{ name string }

// hostEngines lists every group kernel this host can run: the portable
// one alone without an assembly engine.
func hostEngines() []testEngine { return []testEngine{{name: "portable"}} }

// install routes depositGroupsFast to e and returns the undo.
func (e testEngine) install() (restore func()) { return func() {} }

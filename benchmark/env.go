package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// processStart is taken when the runtime initializes the package: as
// early as the program itself can see.
var processStart = time.Now()

// environment is written into every JSON output so a number can be
// traced back to the box and revision that produced it.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GitRev     string `json:"git_rev"`
}

func (e environment) String() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, kernel %s, rev %s", e.NProc, e.GoMaxProcs, e.GoVersion, e.Kernel, e.GitRev)
}

func readEnvironment() environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		GitRev:     gitRev("."),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

// gitRev resolves HEAD by reading the repository's files; a checkout
// that is not a git repository reports "unknown".
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", name))
		if err != nil {
			return "unknown" // packed ref: not worth parsing here
		}
		ref = strings.TrimSpace(string(b))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}

package obs

import (
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"
	"strings"
	"sync"
)

// ParseLevel resolves a -log-level flag value (debug, info, warn, error).
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (debug, info, warn, error)", s)
	}
}

// NewLogger builds the daemons' structured logger: format "text" or
// "json", leveled per ParseLevel. Everything the service logs flows
// through loggers derived from this one, so one flag pair switches the
// whole process between human-readable and machine-ingestible output.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (text, json)", format)
	}
}

// NopLogger discards everything; the server's default when no logger is
// configured, so call sites never branch on nil.
func NopLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

// Build identifies the running binary, read once from the build info the
// Go toolchain embeds.
type Build struct {
	// Version is the main module version ("(devel)" for non-tagged builds).
	Version string `json:"version,omitempty"`
	// Revision is the VCS commit the binary was built from, suffixed with
	// "+dirty" when the working tree had local modifications.
	Revision string `json:"vcs_revision,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version,omitempty"`
}

var (
	buildOnce sync.Once
	buildInfo Build
)

// BuildInfo returns the binary's identity from runtime/debug.ReadBuildInfo
// — what /healthz and the -version flags report so deployed binaries are
// attributable to a commit.
func BuildInfo() Build {
	buildOnce.Do(func() {
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		buildInfo.Version = bi.Main.Version
		buildInfo.GoVersion = bi.GoVersion
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			buildInfo.Revision = rev + dirty
		}
	})
	return buildInfo
}

// String renders the build identity for -version output.
func (b Build) String() string {
	rev := b.Revision
	if rev == "" {
		rev = "unknown"
	}
	return fmt.Sprintf("%s (revision %s, %s)", orUnknown(b.Version), rev, orUnknown(b.GoVersion))
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hello", "k", "v")
	if !strings.Contains(buf.String(), "msg=hello") || !strings.Contains(buf.String(), "k=v") {
		t.Fatalf("text output: %q", buf.String())
	}
	l.Debug("invisible")
	if strings.Contains(buf.String(), "invisible") {
		t.Fatal("debug line leaked through info level")
	}

	buf.Reset()
	l, err = NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("ping", "n", 1)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json output not a JSON object: %q", buf.String())
	}
	if rec["msg"] != "ping" || rec["n"] != float64(1) {
		t.Fatalf("json record = %v", rec)
	}

	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Fatal("unknown level must error")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("unknown format must error")
	}
}

func TestLoggerContextRoundTrip(t *testing.T) {
	if NopLogger().Enabled(context.Background(), slog.LevelError) {
		t.Fatal("the default logger must discard everything")
	}
	var buf bytes.Buffer
	l, _ := NewLogger(&buf, "info", "text")
	ctx := WithLogger(context.Background(), l)
	if got, _ := ctx.Value(loggerKey{}).(*slog.Logger); got != l {
		t.Fatal("logger did not round-trip through the context")
	}
}

func TestBuildInfo(t *testing.T) {
	b := BuildInfo()
	// Test binaries always embed the toolchain version; VCS data depends on
	// how the test was invoked, so only its formatting is checked.
	if b.GoVersion == "" {
		t.Fatal("GoVersion must be populated under `go test`")
	}
	if s := b.String(); !strings.Contains(s, b.GoVersion) {
		t.Fatalf("String() = %q must include the Go version", s)
	}
	if (Build{}).String() != "unknown (revision unknown, unknown)" {
		t.Fatalf("zero build renders %q", (Build{}).String())
	}
}

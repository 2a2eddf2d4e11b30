package core

import (
	"crypto/rand"
	"io"
	"time"
)

// Clock abstracts time so protocols are testable on a settable clock.
type Clock interface {
	Now() time.Time
}

// SystemClock is the wall-clock implementation of Clock.
type SystemClock struct{}

// Now returns the current wall-clock time.
func (SystemClock) Now() time.Time { return time.Now() }

// FixedClock is a settable clock for tests.
type FixedClock struct {
	T time.Time
}

// Now returns the configured instant.
func (c *FixedClock) Now() time.Time { return c.T }

// Advance moves the clock forward.
func (c *FixedClock) Advance(d time.Duration) { c.T = c.T.Add(d) }

// Config carries the injected dependencies and protocol knobs shared by
// every entity.
type Config struct {
	// Clock supplies timestamps; defaults to SystemClock.
	Clock Clock
	// Rand supplies randomness; defaults to crypto/rand.Reader.
	Rand io.Reader
	// FreshnessWindow bounds |now − ts| for accepted protocol messages
	// (replay defense). Defaults to 30 seconds.
	FreshnessWindow time.Duration
	// CertValidity is the lifetime of issued router certificates.
	// Defaults to 30 days.
	CertValidity time.Duration
	// RevocationUpdatePeriod is the CRL/URL refresh interval, the paper's
	// bound on how long a newly revoked entity stays usable. Defaults to
	// 10 minutes.
	RevocationUpdatePeriod time.Duration
	// PuzzleDifficulty is the client-puzzle difficulty (leading zero
	// bits) used when a router enables DoS defense. Defaults to 12.
	PuzzleDifficulty uint8
	// PuzzleMaxAge bounds the age of an acceptable puzzle solution.
	// Defaults to FreshnessWindow.
	PuzzleMaxAge time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = SystemClock{}
	}
	if c.Rand == nil {
		c.Rand = rand.Reader
	}
	if c.FreshnessWindow == 0 {
		c.FreshnessWindow = 30 * time.Second
	}
	if c.CertValidity == 0 {
		c.CertValidity = 30 * 24 * time.Hour
	}
	if c.RevocationUpdatePeriod == 0 {
		c.RevocationUpdatePeriod = 10 * time.Minute
	}
	if c.PuzzleDifficulty == 0 {
		c.PuzzleDifficulty = 12
	}
	if c.PuzzleMaxAge == 0 {
		c.PuzzleMaxAge = c.FreshnessWindow
	}
	return c
}

// fresh reports whether ts lies within the freshness window around now.
func fresh(cfg Config, now, ts time.Time) bool {
	d := now.Sub(ts)
	if d < 0 {
		d = -d
	}
	return d <= cfg.FreshnessWindow
}

package main

import (
	"io"
	"strings"
	"testing"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.run.Device != "P20" || o.run.Scenario != "S-A" || o.run.Scheme != "LRU+CFS" {
		t.Errorf("defaults: device=%s scenario=%s scheme=%s", o.run.Device, o.run.Scenario, o.run.Scheme)
	}
	if o.cfg.Device.ZramCodec != "lz4" {
		t.Errorf("default ZramCodec = %q, want lz4 (the device default)", o.cfg.Device.ZramCodec)
	}
	if o.run.DurationSec != 60 || o.run.Rounds != 1 || o.run.Seed != 1 {
		t.Errorf("defaults: duration=%d rounds=%d seed=%d", o.run.DurationSec, o.run.Rounds, o.run.Seed)
	}
}

func TestParseFlagsZramCodec(t *testing.T) {
	for _, codec := range []string{"lz4", "zstd", "snappy"} {
		o, err := parseFlags([]string{"-zram-codec", codec}, io.Discard)
		if err != nil {
			t.Fatalf("-zram-codec %s: %v", codec, err)
		}
		if o.cfg.Device.ZramCodec != codec {
			t.Errorf("-zram-codec %s: profile carries %q", codec, o.cfg.Device.ZramCodec)
		}
	}

	_, err := parseFlags([]string{"-zram-codec", "lzma"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown codec") {
		t.Errorf("-zram-codec lzma accepted (err = %v)", err)
	}
}

func TestParseFlagsRejectsBadNames(t *testing.T) {
	for _, args := range [][]string{
		{"-device", "iPhone15"},
		{"-scheme", "MGLRU"},
		{"-case", "burnin"},
		{"-scenario", "S-Z"},
		{"-bg", "-1"},
		{"-bg", "20"},
		{"-rounds", "1001"},
		{"-not-a-flag"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
}

func TestParseFlagsResolvesEverything(t *testing.T) {
	o, err := parseFlags([]string{
		"-device", "Pixel3", "-scenario", "S-D", "-scheme", "Ice",
		"-case", "memtester", "-bg", "6", "-duration", "30",
		"-seed", "99", "-rounds", "4", "-workers", "2",
		"-zram-codec", "zstd",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.run.Device != "Pixel3" || o.run.Scheme != "Ice" || o.run.Scenario != "S-D" {
		t.Errorf("resolved: device=%s scheme=%s scenario=%s", o.run.Device, o.run.Scheme, o.run.Scenario)
	}
	if o.cfg.BGCase.String() != "BG-memtester" {
		t.Errorf("bg case = %s", o.cfg.BGCase)
	}
	if o.run.NumBG != 6 || o.run.DurationSec != 30 || o.run.Seed != 99 || o.run.Rounds != 4 || o.workers != 2 {
		t.Errorf("numeric flags: %+v", o)
	}
	if o.cfg.Device.ZramCodec != "zstd" {
		t.Errorf("ZramCodec = %q", o.cfg.Device.ZramCodec)
	}
}

// TestRunRoundsGolden pins -rounds output byte-for-byte. The expected
// text is icesim's stdout for these flags before its rounds moved onto
// the run path icesimd shares; -scheme spells an alias on purpose.
func TestRunRoundsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates three rounds")
	}
	const want = `device    : Pixel3 (QSD845, 4GB RAM, eMMC5.1, Android 10)
scenario  : S-C (BG-apps), scheme Ice, 3 rounds (workers 0)
round 0   : fps=31.0 ria=41.9% reclaimed=0 refaulted=179
round 1   : fps=37.0 ria=48.6% reclaimed=48 refaulted=195
round 2   : fps=23.5 ria=59.6% reclaimed=48 refaulted=146
mean      : fps=30.5 (p50=31.0) ria=50.1% reclaimed=32 refaulted=173
`
	o, err := parseFlags([]string{
		"-device", "Pixel3", "-scenario", "S-C", "-scheme", "ice",
		"-duration", "2", "-rounds", "3", "-seed", "11",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runRounds(&out, o); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Errorf("runRounds output changed:\n%s\nwant:\n%s", out.String(), want)
	}
}

package config

import "testing"

func TestGoldenCoveMatchesTable1(t *testing.T) {
	c := GoldenCove()
	if c.FetchWidth != 6 || c.DecodeWidth != 6 {
		t.Errorf("frontend width = %d/%d, want 6/6", c.FetchWidth, c.DecodeWidth)
	}
	if c.RetireWidth != 8 {
		t.Errorf("retire width = %d, want 8", c.RetireWidth)
	}
	if c.ROBSize != 512 {
		t.Errorf("ROB = %d, want 512", c.ROBSize)
	}
	if c.RSSize != 160 {
		t.Errorf("RS = %d, want 160", c.RSSize)
	}
	if c.NumALU != 5 || c.NumLoadPorts != 3 || c.NumStorePorts != 2 {
		t.Errorf("FUs = %d/%d/%d, want 5/3/2", c.NumALU, c.NumLoadPorts, c.NumStorePorts)
	}
	if c.LoadQueue != 96 || c.StoreQueue != 64 {
		t.Errorf("LQ/SQ = %d/%d, want 96/64", c.LoadQueue, c.StoreQueue)
	}
	if c.BTBEntries != 12*1024 || c.IBTBEntries != 3*1024 {
		t.Errorf("BTB/IBTB = %d/%d", c.BTBEntries, c.IBTBEntries)
	}
	if c.L1I.SizeBytes != 32<<10 || c.L1I.Ways != 8 || c.L1I.Latency != 3 {
		t.Errorf("L1I = %+v", c.L1I)
	}
	if c.L1D.SizeBytes != 48<<10 || c.L1D.Ways != 12 || c.L1D.Latency != 3 {
		t.Errorf("L1D = %+v", c.L1D)
	}
	if c.L2.SizeBytes != 1280<<10 || c.L2.Ways != 10 || c.L2.Latency != 14 {
		t.Errorf("L2 = %+v", c.L2)
	}
	if c.LLC.SizeBytes != 3<<20 || c.LLC.Ways != 12 || c.LLC.Latency != 40 {
		t.Errorf("LLC = %+v", c.LLC)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("GoldenCove config invalid: %v", err)
	}
}

func TestCacheSets(t *testing.T) {
	c := CacheConfig{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64}
	if got := c.Sets(); got != 64 {
		t.Errorf("Sets() = %d, want 64", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero fetch", func(c *Config) { c.FetchWidth = 0 }},
		{"tiny ROB", func(c *Config) { c.ROBSize = 2 }},
		{"tiny PRF", func(c *Config) { c.PhysRegs = 10 }},
		{"bad L1D geometry", func(c *Config) { c.L1D.SizeBytes = 1000 }},
		{"negative delay", func(c *Config) { c.RedefineDelay = -1 }},
		{"huge counter", func(c *Config) { c.ConsumerCounterBits = 99 }},
		{"bad scheme", func(c *Config) { c.Scheme = ReleaseScheme(42) }},
		{"negative TAGE history", func(c *Config) { c.TageHistLen = -1 }},
		{"too many TAGE tables", func(c *Config) { c.TageTables = MaxTageTables + 1 }},
		{"too wide TAGE tables", func(c *Config) { c.TageTableBits = MaxTageTableBits + 1 }},
	}
	for _, m := range mutations {
		c := GoldenCove()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate() accepted invalid config", m.name)
		}
	}
}

func TestInfinitePRFIsValid(t *testing.T) {
	c := GoldenCove().WithPhysRegs(0)
	if err := c.Validate(); err != nil {
		t.Errorf("PhysRegs=0 (infinite) should validate: %v", err)
	}
}

func TestSchemeStringRoundTrip(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil {
			t.Fatalf("ParseScheme(%q): %v", s.String(), err)
		}
		if got != s {
			t.Errorf("round trip %v -> %v", s, got)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("ParseScheme accepted bogus name")
	}
}

func TestWithHelpers(t *testing.T) {
	c := GoldenCove()
	c2 := c.WithScheme(SchemeATR).WithPhysRegs(64)
	if c2.Scheme != SchemeATR || c2.PhysRegs != 64 {
		t.Errorf("With helpers: %v %d", c2.Scheme, c2.PhysRegs)
	}
	if c.Scheme != SchemeBaseline || c.PhysRegs != 280 {
		t.Error("With helpers mutated the receiver")
	}
}

func TestMaxConsumerCount(t *testing.T) {
	c := GoldenCove()
	if got := c.MaxConsumerCount(); got != 7 {
		t.Errorf("3-bit counter max = %d, want 7", got)
	}
	c.ConsumerCounterBits = 0
	if got := c.MaxConsumerCount(); got != -1 {
		t.Errorf("unbounded counter = %d, want -1", got)
	}
	c.ConsumerCounterBits = 4
	if got := c.MaxConsumerCount(); got != 15 {
		t.Errorf("4-bit counter max = %d, want 15", got)
	}
}

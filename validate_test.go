package traffic

// Every config type exposes Validate() error and every constructor runs it,
// so a zero-value (or otherwise broken) config is rejected up front with a
// uniform error shape instead of producing a misconfigured device. The
// shared shape is "traffic: <package>: <Field>: <reason>", which keeps the
// failing field machine-greppable across all subsystems.

import (
	"regexp"
	"testing"

	"repro/internal/leakybucket"
	"repro/internal/sketch"
)

var cfgErrShape = regexp.MustCompile(`^traffic: [a-z]+: [A-Za-z.]+: .+`)

func requireCfgErr(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: invalid config accepted", name)
		return
	}
	if !cfgErrShape.MatchString(err.Error()) {
		t.Errorf("%s: error %q does not match %q", name, err, cfgErrShape)
	}
}

// TestConstructorsRejectZeroConfigs asserts every error-returning
// constructor in the facade, and those of the algorithms beyond the paper
// that have no facade entry, rejects its zero-value config with the shared
// error shape. (NewAdaptor is excluded: it panics on invalid configs, and
// AdaptConfig.Validate is covered below.)
func TestConstructorsRejectZeroConfigs(t *testing.T) {
	cases := []struct {
		name  string
		build func() error
	}{
		{"NewSampleAndHold", func() error { _, err := NewSampleAndHold(SampleAndHoldConfig{}); return err }},
		{"NewMultistageFilter", func() error { _, err := NewMultistageFilter(MultistageConfig{}); return err }},
		{"NewSampledNetFlow", func() error { _, err := NewSampledNetFlow(NetFlowConfig{}); return err }},
		{"sketch.NewCountMin", func() error { _, err := sketch.NewCountMin(sketch.CountMinConfig{}); return err }},
		{"sketch.NewSpaceSaving", func() error { _, err := sketch.NewSpaceSaving(sketch.SpaceSavingConfig{}); return err }},
		{"NewPipeline", func() error { _, err := NewPipeline(PipelineConfig{}); return err }},
		{"leakybucket.NewDetector", func() error { _, err := leakybucket.NewDetector(leakybucket.Config{}); return err }},
		{"NewGenerator", func() error { _, err := NewGenerator(GenConfig{}); return err }},
	}
	for _, tc := range cases {
		requireCfgErr(t, tc.name, tc.build())
	}
}

// TestValidateMethodsShareErrorStyle covers the exported Validate methods
// directly, including config types whose constructors are not error
// returning (AdaptConfig) or whose zero value is legal (AccountingParams).
func TestValidateMethodsShareErrorStyle(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"TraceMeta", TraceMeta{}.Validate()},
		{"GenConfig", GenConfig{}.Validate()},
		{"AdaptConfig", AdaptConfig{}.Validate()},
		{"AccountingParams", AccountingParams{Z: 2}.Validate()},
		{"SampleAndHoldConfig", SampleAndHoldConfig{}.Validate()},
		{"MultistageConfig", MultistageConfig{}.Validate()},
		{"NetFlowConfig", NetFlowConfig{}.Validate()},
		{"sketch.CountMinConfig", sketch.CountMinConfig{}.Validate()},
		{"sketch.SpaceSavingConfig", sketch.SpaceSavingConfig{}.Validate()},
		{"PipelineConfig", PipelineConfig{}.Validate()},
		{"leakybucket.Config", leakybucket.Config{}.Validate()},
	}
	for _, tc := range cases {
		requireCfgErr(t, tc.name, tc.err)
	}
	if err := (AccountingParams{Z: 0.01, PerByte: 1e-9}).Validate(); err != nil {
		t.Errorf("valid accounting params rejected: %v", err)
	}
}

package main

import (
	"strings"
	"testing"
)

// TestValidate pins which configurations the server refuses to start with:
// a shard count below one, and a flag that a flag it depends on would leave
// unread — -trace-sample without a tracer to feed, -announce without -follow.
func TestValidate(t *testing.T) {
	base := serverConfig{addr: ":4544", shards: 1}
	for _, tc := range []struct {
		name string
		edit func(*serverConfig)
		want string // substring of the error; "" = valid
	}{
		{"defaults", func(*serverConfig) {}, ""},
		{"zero shards", func(c *serverConfig) { c.shards = 0 }, "-shards"},
		{"negative shards", func(c *serverConfig) { c.shards = -2 }, "-shards"},
		{"trace sample alone", func(c *serverConfig) { c.traceSample = 0.5 }, "-trace-sample"},
		{"trace sample with metrics", func(c *serverConfig) { c.traceSample, c.metricsAddr = 0.5, ":9544" }, ""},
		{"trace sample with slow ops", func(c *serverConfig) { c.traceSample, c.slowOpMs = 1, 10 }, ""},
		{"announce alone", func(c *serverConfig) { c.announce = "127.0.0.1:4545" }, "-announce"},
		{"announce with follow", func(c *serverConfig) { c.announce, c.follow = "127.0.0.1:4545", "127.0.0.1:4544" }, ""},
		{"follow alone", func(c *serverConfig) { c.follow = "127.0.0.1:4544" }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.edit(&cfg)
			err := validate(cfg)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("validate: %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("validate: %v, want an error naming %s", err, tc.want)
			}
		})
	}
}

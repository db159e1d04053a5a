// Fixture: BP006 — metrics hygiene. A counter that is never registered
// with MetricsRegistry is invisible to bench_metrics_dump and
// scripts/check.sh.

struct DemoStats {
  long long cache_hits = 0;
  long long cache_misses = 0;  // never registered below: invisible
  void Reset() { *this = DemoStats{}; }
};

struct Registry {
  void RegisterCounter(const char* name, long long* value);
};

void RegisterDemo(Registry* reg, DemoStats* stats) {
  reg->RegisterCounter("cache_hits", &stats->cache_hits);
  // forgot: cache_misses
}

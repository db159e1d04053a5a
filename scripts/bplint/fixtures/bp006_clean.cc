// Fixture: BP006 clean — every counter is registered under its own
// name.

struct DemoStats {
  long long cache_hits = 0;
  long long cache_misses = 0;
  void Reset() { *this = DemoStats{}; }
};

struct Registry {
  void RegisterCounter(const char* name, long long* value);
};

void RegisterDemo(Registry* reg, DemoStats* stats) {
  reg->RegisterCounter("cache_hits", &stats->cache_hits);
  reg->RegisterCounter("cache_misses", &stats->cache_misses);
}

#ifndef RFIDCLEAN_OBS_SINK_REGISTRY_H_
#define RFIDCLEAN_OBS_SINK_REGISTRY_H_

#include <mutex>
#include <vector>

namespace rfidclean::obs::internal {

/// The per-thread sink lifecycle of the metrics and trace recorders. Each
/// thread owns one `State::Sink` that only it writes, found by one
/// thread_local lookup; its first use registers it under `mutex`, and its
/// thread's exit folds it into the registry and removes it from `live`, so
/// short-lived BatchCleaner workers keep their counts and tracks. `State`
/// holds the recorder's session data plus the two hooks, both run under
/// `mutex`: `Register(Sink&)` before a sink goes live and `Retire(Sink&)`
/// before it leaves. Instantiate with a `State` from an anonymous
/// namespace so the thread_local gets internal linkage.
template <typename State>
struct SinkRegistry : State {
  using Sink = typename State::Sink;

  std::mutex mutex;
  std::vector<Sink*> live;

  /// Leaked, so it outlives every thread_local destructor.
  static SinkRegistry& Get() {
    static SinkRegistry* registry = new SinkRegistry();
    return *registry;
  }

  static Sink& Local() {
    thread_local Owner owner;
    return owner.sink;
  }

 private:
  struct Owner {
    Sink sink;

    Owner() {
      SinkRegistry& registry = Get();
      std::lock_guard<std::mutex> lock(registry.mutex);
      registry.Register(sink);
      registry.live.push_back(&sink);
    }
    ~Owner() {
      SinkRegistry& registry = Get();
      std::lock_guard<std::mutex> lock(registry.mutex);
      registry.Retire(sink);
      std::erase(registry.live, &sink);
    }
  };
};

}  // namespace rfidclean::obs::internal

#endif  // RFIDCLEAN_OBS_SINK_REGISTRY_H_

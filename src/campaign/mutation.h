// certkit campaign: seeded candidate generation and mutation.
//
// The scheduler is the only source of randomness in the campaign, and it is
// only ever called from the runner's serial sections (seeding and breeding),
// so a campaign seed fixes the exact candidate sequence regardless of how
// many workers evaluate them.
#ifndef CERTKIT_CAMPAIGN_MUTATION_H_
#define CERTKIT_CAMPAIGN_MUTATION_H_

#include <array>
#include <cstdint>

#include "campaign/candidate.h"
#include "support/rng.h"

namespace certkit::campaign {

// The scheduler's complete serial state: the RNG stream position and the
// next candidate id. A scheduler restored from this breeds the exact
// candidate sequence the saved one would have — the checkpoint/resume and
// shard modes both rely on it (checkpoint.h serializes it).
struct SchedulerState {
  std::array<std::uint64_t, 4> rng{};
  std::int64_t next_id = 0;

  template <class Io, class Self>
  static void Fields(Io& io, Self& s) {
    io("rng", support::Hex{s.rng});
    io("next_id", s.next_id);
  }
};

class MutationScheduler {
 public:
  // `default_ticks` is the run length given to seed-pool candidates
  // (mutation may later vary it within [5, 60]).
  explicit MutationScheduler(std::uint64_t seed, int default_ticks = 25);

  // Deterministic, structurally diverse seed-pool candidate: cycles through
  // actor mixes, detector-input shapes (including the non-square ones that
  // reach the letterbox path), backends, and single-fault plans.
  Candidate SeedCandidate(int index);

  // Breeds a child from `parent`: 1–3 mutations over actors, geometry,
  // speeds, scenario seed, detector input, backend, fault plan, and run
  // length. The child is always constructible (REQ-SCEN-001 is re-validated
  // through ClampScenarioConfig).
  Candidate Mutate(const Candidate& parent);

  SchedulerState Save() const { return {rng_.state(), next_id_}; }
  void Restore(const SchedulerState& state) {
    rng_.set_state(state.rng);
    next_id_ = state.next_id;
  }

 private:
  void MutateOnce(Candidate* c);

  support::Xoshiro256 rng_;
  int default_ticks_;
  std::int64_t next_id_ = 0;
};

}  // namespace certkit::campaign

#endif  // CERTKIT_CAMPAIGN_MUTATION_H_

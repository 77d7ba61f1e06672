/* Monotonic clock for the observability layer.

   OCaml 5.1's bundled Unix library has no clock_gettime binding, and we
   must not pay the float boxing of Unix.gettimeofday on the span fast
   path, so this stub returns CLOCK_MONOTONIC nanoseconds as an unboxed
   OCaml int.  62 bits of nanoseconds is ~146 years of uptime, so Val_long
   truncation is not a concern. */

#include <time.h>
#include <caml/mlvalues.h>

value holistic_obs_now_ns(value unit)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + ts.tv_nsec);
}

/* The calling domain's major-heap and promotion tallies, in words, as
   they stand: the counters folded in at the last major slice plus the
   words allocated since.  [Gc.quick_stat] sums every domain's tallies,
   so span deltas taken from it pick up other domains' allocations and
   promotions.  Major words include promotions, as in [Gc.stat]. */

#define CAML_INTERNALS
#include <caml/domain_state.h>

value holistic_obs_major_words(value unit)
{
  return Val_long(Caml_state->stat_major_words + Caml_state->allocated_words);
}

value holistic_obs_promoted_words(value unit)
{
  return Val_long(Caml_state->stat_promoted_words);
}

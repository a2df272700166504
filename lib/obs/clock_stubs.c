/* CLOCK_MONOTONIC in nanoseconds, for Obs.Clock.now_ns. The native entry
   point takes no OCaml values and returns an unboxed int64, so a reading
   never allocates. */

#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

int64_t obs_clock_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
}

value obs_clock_now_ns_byte(value unit)
{
  return caml_copy_int64(obs_clock_now_ns(unit));
}

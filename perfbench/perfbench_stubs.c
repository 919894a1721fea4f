/* Monotonic clock for the benchmark: CLOCK_MONOTONIC in nanoseconds.
   The stdlib offers only wall-clock time (Unix.gettimeofday), which
   can step; every latency and duration here is taken from this. */
#include <time.h>
#include <caml/mlvalues.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}

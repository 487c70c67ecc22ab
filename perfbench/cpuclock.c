/* The CPU time of another process, read from its POSIX CPU clock.

   The clock sums the scheduler's runtime of every thread the process has
   had, exited ones included, in nanoseconds. Under a paravirtualised
   kernel with steal-time accounting (CONFIG_PARAVIRT_TIME_ACCOUNTING)
   that runtime leaves out the time the hypervisor gave the virtual CPU
   to another guest, so the figure does not grow with a noisy neighbour's
   load the way wall time does. */

#define _POSIX_C_SOURCE 200809L
#include <sys/types.h>
#include <time.h>

#include <caml/mlvalues.h>

/* CPU nanoseconds used so far by process [pid], or -1 if it has no
   readable clock (it has exited and been reaped, or never existed). */
value perfbench_process_cpu_ns(value pid)
{
  clockid_t clock;
  struct timespec ts;
  if (clock_getcpuclockid((pid_t)Long_val(pid), &clock) != 0) return Val_long(-1);
  if (clock_gettime(clock, &ts) != 0) return Val_long(-1);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}

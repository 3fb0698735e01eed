/* SIGPROF sampling profiler, preloaded: see README.md.
 *
 *   gcc -O2 -shared -fPIC -o prof.so prof.c
 *   LD_PRELOAD=$PWD/prof.so PROF_OUT=run.prof ./program args...
 *
 * Every ~1 ms of CPU time the handler stores the interrupted pc, the raw
 * word at [rsp] (a leaf without a frame — every libc string routine — has
 * its return address there on entry, which is where the time goes for
 * small sizes) and the frame-pointer chain. At exit the samples and
 * /proc/self/maps are written out as text for sym.py. x86-64 Linux. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

enum { DEPTH = 24, MAX_SAMPLES = 1 << 16, PERIOD_US = 1003 };
static uintptr_t samples[MAX_SAMPLES][DEPTH + 2];
static volatile unsigned n_samples;
static uintptr_t stack_hi; /* top of the main thread's [stack] mapping */

static void on_prof(int sig, siginfo_t *si, void *uc_) {
    (void)sig, (void)si;
    mcontext_t *mc = &((ucontext_t *)uc_)->uc_mcontext;
    unsigned n = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (n >= MAX_SAMPLES)
        return;
    uintptr_t *s = samples[n], sp = mc->gregs[REG_RSP], fp = mc->gregs[REG_RBP];
    int d = 0;
    s[d++] = mc->gregs[REG_RIP];
    /* Only walk a stack whose top is known: a garbage rbp (code built
     * without frame pointers uses it as data) must not be dereferenced. */
    if (sp + 8 > stack_hi || stack_hi - sp > (1ul << 30)) {
        s[d] = 0;
        return;
    }
    s[d++] = *(uintptr_t *)sp;
    while (d < DEPTH + 1 && fp >= sp && fp + 16 <= stack_hi && !(fp & 7)) {
        s[d++] = ((uintptr_t *)fp)[1];
        uintptr_t up = ((uintptr_t *)fp)[0];
        if (up <= fp)
            break;
        fp = up;
    }
    s[d] = 0;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "prof.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[512];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    unsigned n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (unsigned i = 0; i < n; i++) {
        fputc('S', out);
        for (int d = 0; d < DEPTH + 2 && (d < 2 || samples[i][d]); d++)
            fprintf(out, " %lx", (unsigned long)samples[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    char line[512];
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        if (sscanf(line, "%lx-%lx", &lo, &hi) == 2 && (uintptr_t)&line >= lo && (uintptr_t)&line < hi)
            stack_hi = hi;
    }
    if (maps)
        fclose(maps);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}

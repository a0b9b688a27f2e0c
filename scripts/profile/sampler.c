/*
 * A sampling profiler to LD_PRELOAD into a process built with
 * `-C force-frame-pointers=yes` (see scripts/profile.sh).
 *
 * A timer sends SIGPROF every millisecond of wall time; the handler records
 * the interrupted program counter, the return addresses found by walking
 * the frame-pointer chain, and the CPU time the process consumed since the
 * previous sample, which weighs the sample: a process blocked in a wait
 * gets weightless samples. (CPU-time interval timers would need no weights
 * but fire on scheduler ticks, 250 Hz or less.) It also records the
 * SP_WORDS words from the interrupted stack pointer up: libc's leaves keep
 * no frame pointer, so the frame-pointer walk skips their caller, and the
 * return address into it is the word at the stack pointer (a frameless
 * leaf such as memcmp) or a few words above it (a leaf that pushed
 * registers or reserved stack). At exit the process writes
 * `cqprof.<pid>.txt` into the directory it started in (a program may change
 * directory on the way, as git does): a copy of /proc/self/maps
 * (to find the load base of every object), a line
 * `samples dropped=N sp_words=SP_WORDS`, then one line per sample: the
 * weight in nanoseconds, then the SP_WORDS words (0 where not read), then
 * the stack, leaf first, in hexadecimal. Every
 * exec'd child inherits LD_PRELOAD and writes its own file; symbolization
 * happens offline.
 *
 * The handler only reads memory it can prove is stack: frame pointers must
 * lie between the interrupted stack pointer and the top of the main
 * thread's stack (found in /proc/self/maps when the library loads; the
 * stack grows down from it, mapped down to the stack pointer), strictly
 * increase and be 8-byte aligned; the words above the stack pointer are
 * read under the same bounds. A frame without a frame pointer (libc,
 * hand-written assembly) ends or shortens the walk; it never faults.
 * Samples taken on other threads keep their leaf only.
 *
 * Build: cc -O2 -shared -fPIC -o sampler.so sampler.c
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define INTERVAL_US 1000
#define MAX_DEPTH 96
/* Words read from the stack pointer up. */
#define SP_WORDS 8
/* 64 Mi words: untouched pages cost nothing. */
#define BUF_WORDS (64UL << 20)

static uint64_t *buf;
static volatile size_t used;
static volatile uint64_t dropped;
static uint64_t cpu_seen_ns;
static timer_t timer;
static char out_path[4096];
static uintptr_t stack_hi;
/* How far below its top a stack pointer may sit and still be the main
 * thread's (RLIMIT_STACK is 8 MiB by default). */
#define MAIN_STACK_SPAN (64UL << 20)

static void find_main_stack(void) {
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    if (!maps)
        return;
    while (fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        if (strstr(line, "[stack]") && sscanf(line, "%lx-%lx", &lo, &hi) == 2)
            stack_hi = hi;
    }
    fclose(maps);
}

static void on_sigprof(int sig, siginfo_t *info, void *raw) {
    (void)sig;
    (void)info;
    ucontext_t *uc = raw;
#if defined(__x86_64__)
    uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
#elif defined(__aarch64__)
    uintptr_t pc = uc->uc_mcontext.pc;
    uintptr_t fp = uc->uc_mcontext.regs[29];
    uintptr_t sp = uc->uc_mcontext.sp;
#else
#error "unsupported architecture"
#endif
    struct timespec cpu;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
    uint64_t cpu_ns = (uint64_t)cpu.tv_sec * 1000000000u + (uint64_t)cpu.tv_nsec;
    uint64_t frames[MAX_DEPTH + SP_WORDS + 1];
    size_t depth = 0;
    int main_stack = sp < stack_hi && stack_hi - sp < MAIN_STACK_SPAN;
    frames[depth++] = cpu_ns - cpu_seen_ns;
    cpu_seen_ns = cpu_ns;
    for (size_t i = 0; i < SP_WORDS; i++) {
        uintptr_t at = sp + 8 * i;
        frames[depth++] = main_stack && (sp & 7) == 0 && at + 8 <= stack_hi
                              ? *(const uintptr_t *)at
                              : 0;
    }
    frames[depth++] = pc;
    if (main_stack) {
        uintptr_t lo = sp;
        while (depth < MAX_DEPTH + SP_WORDS + 1 && fp >= lo && fp + 16 <= stack_hi &&
               (fp & 7) == 0) {
            const uintptr_t *frame = (const uintptr_t *)fp;
            uintptr_t ret = frame[1];
            if (ret == 0)
                break;
            frames[depth++] = ret;
            lo = fp + 16;
            fp = frame[0];
        }
    }
    size_t at = used;
    if (at + depth + 1 > BUF_WORDS) {
        dropped++;
        return;
    }
    buf[at] = depth;
    memcpy(&buf[at + 1], frames, depth * sizeof frames[0]);
    used = at + depth + 1;
}

__attribute__((constructor)) static void sampler_start(void) {
    buf = mmap(NULL, BUF_WORDS * sizeof *buf, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED) {
        buf = NULL;
        return;
    }
    char dir[4000];
    if (!getcwd(dir, sizeof dir))
        return;
    snprintf(out_path, sizeof out_path, "%s/cqprof.%d.txt", dir, (int)getpid());
    find_main_stack();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev;
    memset(&ev, 0, sizeof ev);
    ev.sigev_notify = SIGEV_SIGNAL;
    ev.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0)
        return;
    struct itimerspec every = {{0, INTERVAL_US * 1000}, {0, INTERVAL_US * 1000}};
    timer_settime(timer, 0, &every, NULL);
}

__attribute__((destructor)) static void sampler_dump(void) {
    if (!buf || !out_path[0])
        return;
    timer_delete(timer);
    FILE *out = fopen(out_path, "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) {
        if (out)
            fclose(out);
        if (maps)
            fclose(maps);
        return;
    }
    char line[512];
    fputs("maps\n", out);
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    fprintf(out, "samples dropped=%llu sp_words=%d\n", (unsigned long long)dropped, SP_WORDS);
    for (size_t at = 0; at < used; at += buf[at] + 1) {
        fprintf(out, "%llu", (unsigned long long)buf[at + 1]);
        for (uint64_t i = 1; i < buf[at]; i++)
            fprintf(out, " %llx", (unsigned long long)buf[at + 1 + i]);
        fputc('\n', out);
    }
    fclose(out);
}

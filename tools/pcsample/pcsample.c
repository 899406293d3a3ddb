/*
 * pcsample: a SIGPROF program-counter sampler loaded with LD_PRELOAD.
 * It records the interrupted PC every PCSAMPLE_US microseconds of
 * process CPU time (default 1000; the kernel may round up to its tick)
 * and, at exit, writes one "<object> <offset>" line per sample to
 * $PCSAMPLE_OUT.<pid> (default pcsample.<pid>). resolve.py turns the
 * file into per-function, per-inlined-frame and per-instruction shares.
 * See README.md. x86-64 and AArch64 Linux only.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <elf.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20)
static void* pcs[MAX_SAMPLES];
static unsigned n;

static void
onProf(int sig, siginfo_t* si, void* ctx)
{
    const ucontext_t* uc = ctx;
    unsigned i = __atomic_fetch_add(&n, 1, __ATOMIC_RELAXED);
    (void)sig, (void)si;
    if (i < MAX_SAMPLES)
#if defined(__x86_64__)
        pcs[i] = (void*)uc->uc_mcontext.gregs[REG_RIP];
#else
        pcs[i] = (void*)uc->uc_mcontext.pc;
#endif
}

__attribute__((constructor)) static void
start(void)
{
    const char* us = getenv("PCSAMPLE_US");
    long period = us ? atol(us) : 1000;
    struct sigaction sa = {.sa_sigaction = onProf,
                           .sa_flags = SA_SIGINFO | SA_RESTART};
    struct itimerval it = {{period / 1000000, period % 1000000},
                           {period / 1000000, period % 1000000}};
    sigaction(SIGPROF, &sa, NULL);
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void
stop(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    const char* prefix = getenv("PCSAMPLE_OUT");
    char path[4096];
    setitimer(ITIMER_PROF, &off, NULL);
    snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "pcsample",
             (int)getpid());
    FILE* f = fopen(path, "w");
    if (!f)
        return;
    for (unsigned i = 0; i < n && i < MAX_SAMPLES; ++i) {
        Dl_info di;
        if (!dladdr(pcs[i], &di) || !di.dli_fname) {
            fprintf(f, "? %p\n", pcs[i]);
            continue;
        }
        // A position-dependent executable is linked at its load
        // address; everything else is resolved relative to its base.
        const Elf64_Ehdr* eh = di.dli_fbase;
        unsigned long off = (unsigned long)pcs[i];
        if (eh->e_type != ET_EXEC)
            off -= (unsigned long)di.dli_fbase;
        fprintf(f, "%s 0x%lx\n", di.dli_fname, off);
    }
    fclose(f);
}

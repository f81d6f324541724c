//! SIGTERM/SIGINT → graceful drain.
//!
//! A supervisor restart (`systemctl restart`, a Kubernetes pod
//! eviction, Ctrl-C in a terminal) delivers SIGTERM or SIGINT — the
//! exact moment a crash-safe service must flush its journal and
//! in-flight DRAT proofs instead of dying mid-write. [`install`] hooks
//! both signals with a handler that does the only async-signal-safe
//! thing possible: set one atomic flag. Every transport polls
//! [`drain_requested`] from its idle path (the TCP transports poll on
//! a ~100 ms tick; blocking stdio reads are interrupted by the signal
//! itself — the handler is installed *without* `SA_RESTART` so `read`
//! returns `EINTR`, which the bounded line reader surfaces as a
//! `Pending` poll) and turns the flag into `LineHandler::begin_drain`,
//! after which the normal drain path runs and the process exits 0.
//!
//! Like the private `poll` module, the Linux implementation issues the raw
//! `rt_sigaction` syscall via inline assembly (no libc binding is
//! available); elsewhere [`install`] reports `Unsupported` and the
//! service simply keeps its previous behavior (drain on `shutdown`
//! only).

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};

static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Whether a hooked signal has arrived since [`install`]. Sticky: the
/// process is expected to drain and exit once this turns true.
pub fn drain_requested() -> bool {
    DRAIN_REQUESTED.load(Ordering::SeqCst)
}

/// What the signal handler does; also a test hook for exercising the
/// transports' drain polling without delivering a real signal.
pub fn request_drain() {
    DRAIN_REQUESTED.store(true, Ordering::SeqCst);
}

/// Hooks SIGTERM and SIGINT. Returns `Unsupported` on platforms
/// without the raw-syscall backend; callers should treat that as
/// "signals keep their default disposition", not as fatal.
pub fn install() -> io::Result<()> {
    sys::install()
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    //! Raw `rt_sigaction` bindings — an `unsafe` island like
    //! [`poll`](super::super::poll)'s epoll module, and under the same
    //! rules: stable kernel ABI only, every pointer a live local.

    use super::DRAIN_REQUESTED;
    use std::io;
    use std::sync::atomic::Ordering;

    const SIGINT: i64 = 2;
    const SIGTERM: i64 = 15;

    /// `sizeof(sigset_t)` as the kernel wants it (64 signals / 8).
    const SIGSET_BYTES: i64 = 8;

    extern "C" fn on_signal(_sig: i32) {
        // The only async-signal-safe action: flip the flag. Everything
        // else (begin_drain, journal flush, joins) happens on normal
        // threads that poll it.
        DRAIN_REQUESTED.store(true, Ordering::SeqCst);
    }

    #[cfg(target_arch = "x86_64")]
    // `allow` on the module, not the macro call: the `unsafe_code`
    // lint fires on `global_asm!` at expansion and ignores an
    // attribute attached directly to the invocation.
    #[allow(unsafe_code)]
    mod arch {
        /// `rt_sigaction` on x86_64.
        pub(super) const NR_RT_SIGACTION: i64 = 13;

        /// x86_64 requires userspace to supply the signal-return
        /// trampoline (`SA_RESTORER`); the kernel refuses handlers
        /// without one. The trampoline is two instructions: load the
        /// `rt_sigreturn` number (15) and trap.
        pub(super) const SA_RESTORER: u64 = 0x0400_0000;

        std::arch::global_asm!(
            ".hidden __scadad_sigrestore",
            ".global __scadad_sigrestore",
            "__scadad_sigrestore:",
            "mov rax, 15",
            "syscall",
        );

        extern "C" {
            pub(super) fn __scadad_sigrestore();
        }

        /// The kernel's `struct sigaction` (x86_64 layout: restorer
        /// between flags and mask).
        #[repr(C)]
        pub(super) struct KernelSigaction {
            pub handler: u64,
            pub flags: u64,
            pub restorer: u64,
            pub mask: u64,
        }

        pub(super) fn action(handler: u64) -> KernelSigaction {
            KernelSigaction {
                handler,
                // No SA_RESTART: blocking reads must return EINTR so
                // the stdio transport notices the drain.
                flags: SA_RESTORER,
                restorer: __scadad_sigrestore as *const () as usize as u64,
                mask: 0,
            }
        }
    }

    #[cfg(target_arch = "aarch64")]
    mod arch {
        /// `rt_sigaction` on aarch64.
        pub(super) const NR_RT_SIGACTION: i64 = 134;

        /// aarch64 has no `SA_RESTORER`: the kernel maps its own
        /// return trampoline, and `struct sigaction` has no restorer
        /// field.
        #[repr(C)]
        pub(super) struct KernelSigaction {
            pub handler: u64,
            pub flags: u64,
            pub mask: u64,
        }

        pub(super) fn action(handler: u64) -> KernelSigaction {
            KernelSigaction {
                handler,
                flags: 0,
                mask: 0,
            }
        }
    }

    /// Issues a raw 4-argument syscall (see `poll::epoll::syscall5`
    /// for the ABI notes; duplicated here because that helper is
    /// private to its own unsafe island).
    #[allow(unsafe_code)]
    fn syscall4(nr: i64, a1: i64, a2: i64, a3: i64, a4: i64) -> i64 {
        let ret: i64;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: stable Linux syscall ABI; the pointer argument is a
        // live local held across the call; rcx/r11 are clobbered by
        // `syscall` and declared so.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                out("rcx") _,
                out("r11") _,
                options(nostack),
            );
        }
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above; `svc 0` with the number in x8 is the
        // stable aarch64 Linux syscall ABI.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") nr,
                inlateout("x0") a1 => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                options(nostack),
            );
        }
        ret
    }

    pub(super) fn install() -> io::Result<()> {
        let action = arch::action(on_signal as *const () as usize as u64);
        for sig in [SIGINT, SIGTERM] {
            let ret = syscall4(
                arch::NR_RT_SIGACTION,
                sig,
                std::ptr::from_ref(&action) as i64,
                0,
                SIGSET_BYTES,
            );
            if ret < 0 {
                return Err(io::Error::from_raw_os_error(-ret as i32));
            }
        }
        Ok(())
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use std::io;

    pub(super) fn install() -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "signal handling needs the raw-syscall backend (linux x86_64/aarch64)",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_drain_is_sticky_and_visible() {
        // Note: the flag is process-global, so this test must not
        // assert it starts false (another test or a stray signal could
        // have set it); it only checks the set-then-read path.
        request_drain();
        assert!(drain_requested());
    }
}

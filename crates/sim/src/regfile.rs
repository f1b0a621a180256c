//! Physical register file with a free list, ready bits and occupancy
//! accounting (the register-pressure axis of Figures 9/11/13).

/// Physical register identifier.
pub type PhysId = u32;

/// The physical register file. Register 0 is the hard-wired zero
/// register: always ready, value 0, never allocated or freed.
#[derive(Debug, Clone)]
pub struct PhysRegFile {
    vals: Vec<u64>,
    ready: Vec<bool>,
    free: Vec<PhysId>,
    bounded: bool,
    /// High-water mark of registers in use.
    pub high_water: usize,
}

impl PhysRegFile {
    /// Create a file. `capacity = None` means unbounded (grows on
    /// demand — the figures' "Inf" configuration). A bounded file must
    /// hold at least the 64 architectural mappings plus the zero
    /// register.
    pub fn new(capacity: Option<u32>) -> Self {
        match capacity {
            Some(n) => {
                assert!(n >= 66, "need 64 arch mappings + zero reg + headroom");
                let n = n as usize;
                let mut ready = vec![false; n];
                ready[0] = true; // zero register always readable
                PhysRegFile {
                    vals: vec![0; n],
                    ready,
                    // Registers 1..n are allocatable; keep low ids at the
                    // end of the free list so they are handed out first.
                    free: (1..n as u32).rev().collect(),
                    bounded: true,
                    high_water: 1,
                }
            }
            None => PhysRegFile {
                vals: vec![0],
                ready: vec![true],
                free: Vec::new(),
                bounded: false,
                high_water: 1,
            },
        }
    }

    /// Registers currently in use (including the zero register and the
    /// 64 architectural mappings).
    #[inline]
    pub fn in_use(&self) -> usize {
        self.vals.len() - self.free.len()
    }

    /// Registers in the file, free or not (an unbounded file grows as
    /// it allocates).
    #[inline]
    pub fn registers(&self) -> usize {
        self.vals.len()
    }

    /// Free registers available right now.
    #[inline]
    pub fn available(&self) -> usize {
        if self.bounded {
            self.free.len()
        } else {
            usize::MAX
        }
    }

    /// Allocate a register (not ready, value undefined).
    pub fn alloc(&mut self) -> Option<PhysId> {
        let id = match self.free.pop() {
            Some(id) => id,
            None if !self.bounded => {
                self.vals.push(0);
                self.ready.push(false);
                (self.vals.len() - 1) as PhysId
            }
            None => return None,
        };
        self.ready[id as usize] = false;
        self.high_water = self.high_water.max(self.in_use());
        Some(id)
    }

    /// Return a register to the free list.
    pub fn free(&mut self, id: PhysId) {
        debug_assert_ne!(id, 0, "zero register is never freed");
        debug_assert!(!self.free.contains(&id), "double free of p{id}");
        self.free.push(id);
    }

    /// Read a register's value.
    #[inline]
    pub fn read(&self, id: PhysId) -> u64 {
        self.vals[id as usize]
    }

    /// Whether the register's value has been produced.
    #[inline]
    pub fn is_ready(&self, id: PhysId) -> bool {
        self.ready[id as usize]
    }

    /// Write a value and mark ready.
    #[inline]
    pub fn write(&mut self, id: PhysId, v: u64) {
        debug_assert_ne!(id, 0, "zero register is read-only");
        self.vals[id as usize] = v;
        self.ready[id as usize] = true;
    }

    /// Mark a register ready without changing its value (zero-register
    /// style initialisation at reset).
    pub fn force_ready(&mut self, id: PhysId, v: u64) {
        self.vals[id as usize] = v;
        self.ready[id as usize] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_alloc_and_exhaustion() {
        let mut rf = PhysRegFile::new(Some(66));
        let mut got = Vec::new();
        while let Some(id) = rf.alloc() {
            got.push(id);
        }
        assert_eq!(got.len(), 65, "66 total minus the zero register");
        assert_eq!(rf.available(), 0);
        rf.free(got[0]);
        assert_eq!(rf.available(), 1);
        assert!(rf.alloc().is_some());
    }

    #[test]
    fn unbounded_grows() {
        let mut rf = PhysRegFile::new(None);
        for _ in 0..1000 {
            assert!(rf.alloc().is_some());
        }
        assert_eq!(rf.in_use(), 1001);
        assert_eq!(rf.available(), usize::MAX);
        assert_eq!(rf.high_water, 1001);
    }

    #[test]
    fn ready_protocol() {
        let mut rf = PhysRegFile::new(Some(66));
        let id = rf.alloc().unwrap();
        assert!(!rf.is_ready(id));
        rf.write(id, 42);
        assert!(rf.is_ready(id));
        assert_eq!(rf.read(id), 42);
        // Re-allocation clears readiness.
        rf.free(id);
        let id2 = rf.alloc().unwrap();
        assert_eq!(id, id2);
        assert!(!rf.is_ready(id2));
    }

    #[test]
    fn zero_register() {
        let rf = PhysRegFile::new(Some(66));
        assert_eq!(rf.read(0), 0);
        // Bounded files start with p0 implicitly live.
        assert_eq!(rf.in_use(), 1);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut rf = PhysRegFile::new(Some(70));
        let a = rf.alloc().unwrap();
        let _b = rf.alloc().unwrap();
        rf.free(a);
        let _c = rf.alloc().unwrap();
        assert_eq!(rf.high_water, 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_asserts() {
        let mut rf = PhysRegFile::new(Some(66));
        let id = rf.alloc().unwrap();
        rf.free(id);
        rf.free(id);
    }
}

// Fixture: the pure-translation tier dispatching into the PTE tree.
struct FixtureTlb {
  const unsigned* LookupPtr(unsigned vp) {
    last_ = backing_->WalkPte(vp);  // line 4: HOT-VIRT-024
    return &last_;
  }
  struct Backing {
    virtual unsigned WalkPte(unsigned vp) = 0;
  };
  Backing* backing_ = nullptr;
  unsigned last_ = 0;
};

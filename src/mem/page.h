/**
 * @file
 * Page identity and the per-page flag bits, the analog of the bits
 * our kernel packs into struct page (Section 5.1): the PTE
 * accessed/dirty bits, the incompressible mark, evictability and
 * far-memory residency. PageTable (page_table.h) stores them, with
 * the last-access scan epoch each page's 8-bit age (in kstaled scan
 * periods) derives from, for one address space.
 */

#ifndef SDFM_MEM_PAGE_H
#define SDFM_MEM_PAGE_H

#include <cstdint>

namespace sdfm {

/** Page index within one job's address space. */
using PageId = std::uint32_t;

/** Job identifier, unique fleet-wide. */
using JobId = std::uint64_t;

/** Per-page flag bits. */
enum PageFlag : std::uint8_t
{
    /** Set by the (modelled) MMU on access; cleared by kstaled. */
    kPageAccessed = 1 << 0,

    /** Set on write; kstaled uses it to clear kPageIncompressible. */
    kPageDirty = 1 << 1,

    /** mlocked/unevictable: never moved to far memory. */
    kPageUnevictable = 1 << 2,

    /**
     * A previous compression attempt produced a payload larger than
     * kMaxZswapPayload; do not retry until the page is dirtied.
     */
    kPageIncompressible = 1 << 3,

    /** The page currently lives compressed in zswap. */
    kPageInZswap = 1 << 4,

    /**
     * The page currently lives in a deep far-memory tier (NVM or
     * remote memory; any TierStack index >= 1). Which tier exactly is
     * tracked per page by the owning Memcg.
     */
    kPageInFarTier = 1 << 5,
};

/** Deterministic content seed for a page's current contents. */
std::uint64_t page_content_seed(std::uint64_t job_seed, PageId page,
                                std::uint16_t version);

}  // namespace sdfm

#endif  // SDFM_MEM_PAGE_H

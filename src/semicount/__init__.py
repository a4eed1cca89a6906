"""Exact linear algebra, normal forms, and counts for twisted-linear
endomorphisms of finite-dimensional spaces over finite fields."""

__version__ = "0.1.0"
